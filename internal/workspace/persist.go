package workspace

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cloudless/internal/wal"
)

// manifestFile is the persisted workspace definition under Root/<name>/.
// It is what makes a daemon restart meaningful: without it the manager
// would come back empty and every replayed job would point at a workspace
// nobody can rebuild.
const manifestFile = "workspace.json"

// manifest is the durable subset of Config — the declarative inputs a
// restarted daemon needs to rebuild the workspace. Runtime handles (Cloud,
// Telemetry, Modules, InitialState) are re-wired by the manager; path
// fields (JournalPath, StateDir) are re-derived from Root so a relocated
// data dir keeps working.
type manifest struct {
	Sources      map[string]string `json:"sources,omitempty"`
	Dir          string            `json:"dir,omitempty"`
	Vars         map[string]any    `json:"vars,omitempty"`
	StateBackend string            `json:"state_backend,omitempty"`
	Policies     string            `json:"policies,omitempty"`
	Principal    string            `json:"principal,omitempty"`

	GuardApplies bool    `json:"guard_applies,omitempty"`
	GuardCanary  float64 `json:"guard_canary,omitempty"`
}

// persist writes the workspace manifest atomically, so a crash mid-write
// leaves either the old manifest or the new one, never a torn file.
func (m *Manager) persist(name string, cfg Config) error {
	if m.opts.Root == "" {
		return nil
	}
	man := manifest{
		Sources: cfg.Sources, Dir: cfg.Dir, Vars: cfg.Vars,
		StateBackend: cfg.StateBackend, Policies: cfg.Policies, Principal: cfg.Principal,
		GuardApplies: cfg.GuardApplies, GuardCanary: cfg.GuardCanary,
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("cloudless: persist workspace %s: %w", name, err)
	}
	dir := filepath.Join(m.opts.Root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cloudless: persist workspace %s: %w", name, err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dir, manifestFile), raw, 0o644); err != nil {
		return fmt.Errorf("cloudless: persist workspace %s: %w", name, err)
	}
	return nil
}

// loadManifest reads a persisted workspace definition back into a Config
// skeleton (runtime handles unset — build fills them from defaults).
func (m *Manager) loadManifest(name string) (Config, error) {
	raw, err := os.ReadFile(filepath.Join(m.opts.Root, name, manifestFile))
	if err != nil {
		return Config{}, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return Config{}, fmt.Errorf("cloudless: workspace %s manifest: %w", name, err)
	}
	return Config{
		Sources: man.Sources, Dir: man.Dir, Vars: man.Vars,
		StateBackend: man.StateBackend, Policies: man.Policies, Principal: man.Principal,
		GuardApplies: man.GuardApplies, GuardCanary: man.GuardCanary,
	}, nil
}

// RecoverReport summarizes a Manager.Recover pass.
type RecoverReport struct {
	// Reopened lists workspaces rebuilt from persisted manifests, sorted.
	Reopened []string
	// Journals lists reopened workspaces that have a stale apply journal
	// (they were mid-apply at the crash) and need apply-level recovery.
	Journals []string
	// Failed maps workspace names that could not be reopened to the error.
	Failed map[string]error
}

// Recover scans the data root for persisted workspace manifests and
// reopens every workspace it finds, restoring durable state (wal backend)
// and detecting stale apply journals. Call it once at daemon startup,
// before the HTTP listener accepts traffic. A workspace that fails to
// rebuild is reported in Failed and skipped; the rest still come up.
func (m *Manager) Recover(ctx context.Context) (*RecoverReport, error) {
	rep := &RecoverReport{Failed: map[string]error{}}
	if m.opts.Root == "" {
		return rep, nil
	}
	entries, err := os.ReadDir(m.opts.Root)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cloudless: recover workspaces: %w", err)
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		name := e.Name()
		if !e.IsDir() || !ValidName(name) {
			continue
		}
		cfg, err := m.loadManifest(name)
		if os.IsNotExist(err) {
			continue // a dir without a manifest isn't a workspace (e.g. the job store root)
		}
		if err != nil {
			rep.Failed[name] = err
			continue
		}
		w, err := m.Open(name, cfg)
		if err != nil {
			rep.Failed[name] = err
			continue
		}
		rep.Reopened = append(rep.Reopened, name)
		if w.HasStaleJournal() {
			rep.Journals = append(rep.Journals, name)
		}
	}
	sort.Strings(rep.Reopened)
	sort.Strings(rep.Journals)
	return rep, nil
}

// ErrWorkspaceBusy is returned by Delete while the workspace still has
// non-terminal jobs (the server maps it to HTTP 409).
type ErrWorkspaceBusy struct {
	Name   string
	Active int
}

// Error implements error.
func (e *ErrWorkspaceBusy) Error() string {
	return fmt.Sprintf("cloudless: workspace %s has %d active jobs; cancel or drain them first", e.Name, e.Active)
}

// Delete drain-closes a workspace and purges its data directory —
// manifest, journals, durable state — so a later workspace reusing the
// name inherits nothing. Contrast Close/CloseAll (the shutdown path),
// which keep the directory so the next daemon start can recover. The
// caller gates on active jobs (see ErrWorkspaceBusy) before calling.
func (m *Manager) Delete(ctx context.Context, name string) error {
	if err := m.Close(ctx, name); err != nil {
		return err
	}
	if m.opts.Root == "" {
		return nil
	}
	if err := os.RemoveAll(filepath.Join(m.opts.Root, name)); err != nil {
		return fmt.Errorf("cloudless: delete workspace %s: %w", name, err)
	}
	return nil
}
