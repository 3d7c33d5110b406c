package state

import (
	"path/filepath"
	"testing"

	"cloudless/internal/eval"
)

func TestHistoryPersistenceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	h := NewHistory(0)
	s := New()
	s.Set(&ResourceState{Addr: "aws_vpc.a", Type: "aws_vpc", ID: "vpc-1",
		Attrs: map[string]eval.Value{"cidr_block": eval.String("10.0.0.0/16")}})
	h.Commit(s, "deploy v1", "cfg-1")
	setAttr(s, "aws_vpc.a", "cidr_block", eval.String("10.1.0.0/16"))
	h.Commit(s, "retarget", "cfg-2")

	if err := h.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadHistoryDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("len = %d", back.Len())
	}
	snap1, err := back.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Description != "deploy v1" || snap1.ConfigFingerprint != "cfg-1" {
		t.Errorf("meta = %+v", snap1)
	}
	if !snap1.State.Get("aws_vpc.a").Attr("cidr_block").Equal(eval.String("10.0.0.0/16")) {
		t.Error("snapshot state content lost")
	}
	// The loaded history continues where it left off.
	serial := back.Commit(s, "post-load", "")
	if serial != 3 {
		t.Errorf("next serial = %d", serial)
	}
}

func TestLoadHistoryDirMissing(t *testing.T) {
	h, err := LoadHistoryDir(filepath.Join(t.TempDir(), "nope"))
	if err != nil || h.Len() != 0 {
		t.Fatalf("missing dir: %v, %v", h, err)
	}
}

func TestSaveSnapshotIdempotent(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{Serial: 7, Description: "x", State: New()}
	if err := SaveSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	h, err := LoadHistoryDir(dir)
	if err != nil || h.Len() != 1 {
		t.Fatalf("%v %v", h.Len(), err)
	}
}
