package workspace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cloudless/internal/cloud"
	"cloudless/internal/statedb"
	"cloudless/internal/telemetry"
)

// ManagerOptions configure NewManager.
type ManagerOptions struct {
	// Root is the data directory: each workspace gets Root/<name>/ holding
	// its manifest, its journal and (for the wal backend) its durable state
	// log. Empty runs every workspace without durability
	// (no journal, memory-class state only) — fine for tests.
	Root string
	// Cloud is the default control plane for workspaces opened without
	// their own. Pass the raw endpoint (sim or HTTP client), not a
	// pre-wrapped runtime: each workspace wraps it in its own
	// provider.Runtime so tenants get separate AIMD windows, read caches,
	// and retry budgets over the shared transport.
	Cloud cloud.Interface
	// DefaultBackend is the statedb backend for workspaces that don't pick
	// one ("" keeps the engine default; "wal" requires Root).
	DefaultBackend string
	// Defaults seeds per-workspace knobs (guard settings, policies) for
	// configs that leave them zero. Name, Sources, Dir, Vars, Cloud, and
	// path fields in Defaults are ignored.
	Defaults Config
}

// Manager hosts many named workspaces in one process. Each workspace owns
// its full engine stack — statedb, event bus, replan cache, provider
// runtime, journal, telemetry registry — so tenants are isolated by
// construction: no shared mutable state exists between two workspaces
// beyond the cloud endpoint itself. All methods are safe for concurrent
// use.
type Manager struct {
	opts ManagerOptions

	mu         sync.RWMutex
	workspaces map[string]*Workspace
}

// NewManager builds an empty manager.
func NewManager(opts ManagerOptions) *Manager {
	return &Manager{opts: opts, workspaces: map[string]*Workspace{}}
}

// ValidName reports whether a workspace name is acceptable: 1-64 chars of
// letters, digits, '-', '_', '.' — no path separators, not "." or "..", so
// names embed safely in filesystem paths and URLs.
func ValidName(name string) bool {
	if name == "" || len(name) > 64 || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// ErrWorkspaceExists is returned by Open for a name already hosted.
type ErrWorkspaceExists struct{ Name string }

// Error implements error.
func (e *ErrWorkspaceExists) Error() string {
	return "cloudless: workspace " + e.Name + " already exists"
}

// ErrWorkspaceNotFound is returned for names the manager does not host.
type ErrWorkspaceNotFound struct{ Name string }

// Error implements error.
func (e *ErrWorkspaceNotFound) Error() string {
	return "cloudless: workspace " + e.Name + " not found"
}

// Open creates and hosts a workspace under the given name. The config's
// zero fields inherit the manager's defaults; when a Root is configured
// the workspace gets its own journal (Root/<name>/run.journal) and, for
// the wal backend, its own durable state dir. Opening a name that is
// already hosted fails with *ErrWorkspaceExists.
func (m *Manager) Open(name string, cfg Config) (*Workspace, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("cloudless: invalid workspace name %q", name)
	}
	// Reserve the name first so two concurrent Opens can't both wire an
	// engine for it; the slot is filled (or vacated) below.
	m.mu.Lock()
	if _, ok := m.workspaces[name]; ok {
		m.mu.Unlock()
		return nil, &ErrWorkspaceExists{Name: name}
	}
	m.workspaces[name] = nil
	m.mu.Unlock()

	w, err := m.build(name, cfg)
	if err == nil {
		// Persist the caller's declarative config (pre-merge) so a restarted
		// daemon rebuilds the workspace under its then-current defaults.
		if perr := m.persist(name, cfg); perr != nil {
			w.Close(context.Background())
			w, err = nil, perr
		}
	}

	m.mu.Lock()
	if err != nil {
		delete(m.workspaces, name)
	} else {
		m.workspaces[name] = w
	}
	m.mu.Unlock()
	return w, err
}

// build wires one workspace from the merged config, outside the manager
// lock (engine/journal setup can touch disk).
func (m *Manager) build(name string, cfg Config) (*Workspace, error) {
	d := m.opts.Defaults
	cfg.Name = name
	if cfg.Cloud == nil {
		cfg.Cloud = m.opts.Cloud
	}
	if cfg.StateBackend == "" {
		cfg.StateBackend = m.opts.DefaultBackend
	}
	if cfg.Policies == "" {
		cfg.Policies = d.Policies
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRecorder(telemetry.Config{})
	}
	if d.GuardApplies && !cfg.GuardApplies {
		cfg.GuardApplies = true
		cfg.GuardCanary = d.GuardCanary
	}
	if m.opts.Root != "" {
		dir := filepath.Join(m.opts.Root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cloudless: workspace %s: %w", name, err)
		}
		if cfg.JournalPath == "" {
			cfg.JournalPath = filepath.Join(dir, "run.journal")
		}
		if cfg.StateBackend == statedb.BackendWAL && cfg.StateDir == "" {
			cfg.StateDir = filepath.Join(dir, "state.wal")
		}
	}
	return New(cfg)
}

// Get returns a hosted workspace, or *ErrWorkspaceNotFound.
func (m *Manager) Get(name string) (*Workspace, error) {
	m.mu.RLock()
	w := m.workspaces[name]
	m.mu.RUnlock()
	if w == nil {
		return nil, &ErrWorkspaceNotFound{Name: name}
	}
	return w, nil
}

// List returns hosted workspace names, sorted.
func (m *Manager) List() []string {
	m.mu.RLock()
	out := make([]string, 0, len(m.workspaces))
	for name, w := range m.workspaces {
		if w != nil {
			out = append(out, name)
		}
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len reports the hosted workspace count.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, w := range m.workspaces {
		if w != nil {
			n++
		}
	}
	return n
}

// Close drains and closes one workspace, then removes it from the manager.
// When ctx expires mid-drain the workspace stays hosted (and mid-drain) so
// a later Close can finish the job.
func (m *Manager) Close(ctx context.Context, name string) error {
	w, err := m.Get(name)
	if err != nil {
		return err
	}
	if err := w.Close(ctx); err != nil {
		if ctx.Err() != nil {
			return err // still draining; keep it hosted for a retry
		}
		// Released with an error (e.g. the state engine's close): the
		// workspace is unusable either way, so drop it.
	}
	m.mu.Lock()
	delete(m.workspaces, name)
	m.mu.Unlock()
	return err
}

// CloseAll drains every hosted workspace concurrently and returns the
// first error (workspaces that time out stay hosted, as in Close).
func (m *Manager) CloseAll(ctx context.Context) error {
	names := m.List()
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = m.Close(ctx, name)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
