package state

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cloudless/internal/wal"
)

// snapshotJSON is the on-disk form of one history snapshot.
type snapshotJSON struct {
	Serial            int             `json:"serial"`
	Time              time.Time       `json:"time"`
	Description       string          `json:"description"`
	ConfigFingerprint string          `json:"config_fingerprint,omitempty"`
	State             json.RawMessage `json:"state"`
}

func snapshotFileName(serial int) string {
	return fmt.Sprintf("snap-%08d.json", serial)
}

// SaveSnapshot writes one snapshot into a history directory, creating it if
// needed. Files are immutable once written, so re-saving is idempotent.
func SaveSnapshot(dir string, snap *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("state: create history dir: %w", err)
	}
	stateData, err := snap.State.Encode()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(snapshotJSON{
		Serial:            snap.Serial,
		Time:              snap.Time,
		Description:       snap.Description,
		ConfigFingerprint: snap.ConfigFingerprint,
		State:             stateData,
	}, "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(filepath.Join(dir, snapshotFileName(snap.Serial)), data, 0o644)
}

// SaveHistoryDir persists every retained snapshot of a history.
func (h *History) SaveDir(dir string) error {
	h.mu.RLock()
	snaps := append([]*Snapshot(nil), h.snapshots...)
	h.mu.RUnlock()
	for _, s := range snaps {
		if err := SaveSnapshot(dir, s); err != nil {
			return err
		}
	}
	return nil
}

// LoadHistoryDir reads a history directory back into a History, in serial
// order. A missing directory yields an empty history.
func LoadHistoryDir(dir string) (*History, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return NewHistory(0), nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: read history dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := NewHistory(0)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var sj snapshotJSON
		if err := json.Unmarshal(data, &sj); err != nil {
			return nil, fmt.Errorf("state: decode snapshot %s: %w", name, err)
		}
		st, err := Decode(sj.State)
		if err != nil {
			return nil, fmt.Errorf("state: decode snapshot state %s: %w", name, err)
		}
		st.Serial = sj.Serial
		h.mu.Lock()
		h.snapshots = append(h.snapshots, &Snapshot{
			Serial:            sj.Serial,
			Time:              sj.Time,
			Description:       sj.Description,
			ConfigFingerprint: sj.ConfigFingerprint,
			State:             st,
		})
		h.mu.Unlock()
	}
	return h, nil
}
