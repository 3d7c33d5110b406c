package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// collect returns a fold that accepts every frame and records its payload.
func collect(into *[]string) func([]byte) bool {
	return func(p []byte) bool {
		*into = append(*into, string(p))
		return true
	}
}

func openLog(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(path, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(false) })
	return l, got
}

func mustAppend(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p), true); err != nil {
			t.Fatalf("append %q: %v", p, err)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestLogReplayTruncatesTornTail: records appended before a crash replay in
// order, the half frame the crash left is cut off the file, and appends made
// after the reopen are replayed behind the survivors.
func TestLogReplayTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, got := openLog(t, path)
	if len(got) != 0 || l.Size() != 0 {
		t.Fatalf("fresh log replayed %v, size %d", got, l.Size())
	}
	mustAppend(t, l, "one", "two")
	durable := l.Size()
	torn := Encode([]byte("three"))
	l.Wrap(func(f File) File { f.Write(torn[:len(torn)-2]); return f })
	l.Close(false)

	l, got = openLog(t, path)
	if fmt.Sprint(got) != "[one two]" {
		t.Fatalf("replayed %v, want [one two]", got)
	}
	if l.Size() != durable || fileSize(t, path) != durable {
		t.Fatalf("after reopen size = %d tracked, %d on disk; want %d", l.Size(), fileSize(t, path), durable)
	}
	mustAppend(t, l, "four")
	l.Close(true)
	if _, got = openLog(t, path); fmt.Sprint(got) != "[one two four]" {
		t.Fatalf("second reopen replayed %v", got)
	}
}

// TestLogFoldRejectionCutsTheLog: a frame the fold rejects is treated as
// torn — it and everything behind it leave the file — while Replay folds the
// same prefix and leaves the file alone.
func TestLogFoldRejectionCutsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := openLog(t, path)
	mustAppend(t, l, "keep", "bad", "after")
	full := l.Size()
	l.Close(true)

	var got []string
	reject := func(p []byte) bool {
		if string(p) == "bad" {
			return false
		}
		got = append(got, string(p))
		return true
	}
	want := int64(len(Encode([]byte("keep"))))
	durable, total, err := Replay(path, reject)
	if err != nil || durable != want || total != full || fileSize(t, path) != full {
		t.Fatalf("Replay = %d, %d, %v with %d on disk; want %d, %d and the file untouched", durable, total, err, fileSize(t, path), want, full)
	}
	got = nil
	l, err = Open(path, reject)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(false)
	if fmt.Sprint(got) != "[keep]" || l.Size() != want || fileSize(t, path) != want {
		t.Fatalf("Open folded %v, size %d tracked, %d on disk; want [keep] and %d", got, l.Size(), fileSize(t, path), want)
	}
	if durable, total, err := Replay(filepath.Join(t.TempDir(), "absent"), reject); durable != 0 || total != 0 || err != nil {
		t.Errorf("Replay of a missing file = %d, %d, %v", durable, total, err)
	}
}

// TestFailedAppendIsCutBackOut: a short write or a failed fsync reports an
// error and leaves no partial frame in front of later records, so the ones
// acknowledged afterwards are replayed. When the cut itself fails the log
// stops acknowledging appends.
func TestFailedAppendIsCutBackOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := openLog(t, path)
	ff := WrapFaulty(l)
	mustAppend(t, l, "before")

	ff.Set(Faults{ShortWrite: true})
	if err := l.Append([]byte("torn"), true); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: Append = %v", err)
	}
	ff.Set(Faults{FailWrite: true})
	if err := l.Append([]byte("unwritten"), true); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed write: Append = %v", err)
	}
	ff.Set(Faults{FailSync: true})
	if err := l.Append([]byte("unsynced"), true); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed fsync: Append = %v", err)
	}
	if err := l.Append([]byte("lazy"), false); err != nil {
		t.Fatalf("append without sync touched the failing fsync: %v", err)
	}
	ff.Set(Faults{})
	if fileSize(t, path) != l.Size() {
		t.Fatalf("file holds %d bytes, %d are durable: the failed frames were not cut out", fileSize(t, path), l.Size())
	}
	mustAppend(t, l, "after")

	ff.Set(Faults{ShortWrite: true, FailTruncate: true})
	if err := l.Append([]byte("stuck"), true); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write with failing truncate: Append = %v", err)
	}
	ff.Set(Faults{})
	if err := l.Append([]byte("refused"), true); err == nil {
		t.Error("append acknowledged behind a partial frame that could not be removed")
	}
	if err := l.Rewrite(nil); err == nil {
		t.Error("Rewrite on a failed log succeeded")
	}
	l.Close(false)

	if _, got := openLog(t, path); fmt.Sprint(got) != "[before lazy after]" {
		t.Errorf("reopen replayed %v, want every acknowledged record and no other", got)
	}
}

// TestRewriteReplacesTheLog: the file holds exactly the payloads given, later
// appends land in the new file, and no temp file stays behind.
func TestRewriteReplacesTheLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	l, _ := openLog(t, path)
	mustAppend(t, l, "a1", "b1", "a2", "b2")
	if err := l.Rewrite([][]byte{[]byte("a2"), []byte("b2")}); err != nil {
		t.Fatal(err)
	}
	if l.Size() != fileSize(t, path) {
		t.Errorf("after Rewrite size = %d tracked, %d on disk", l.Size(), fileSize(t, path))
	}
	mustAppend(t, l, "c1")
	l.Close(false)
	if _, got := openLog(t, path); fmt.Sprint(got) != "[a2 b2 c1]" {
		t.Errorf("reopen after Rewrite replayed %v", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory after Rewrite holds %v", entries)
	}
}

// TestRewriteFailures: a rewrite that fails before its rename leaves the old
// log usable; one that loses the file after the rename leaves the log failed,
// because the handle it held points at an unlinked file no restart reads.
// Neither leaves its temp file behind.
func TestRewriteFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	l, _ := openLog(t, path)
	mustAppend(t, l, "one")

	// A non-empty directory where the temp file goes fails the write.
	blocker := filepath.Join(path+".tmp", "x")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Rewrite([][]byte{[]byte("one")}); err == nil {
		t.Fatal("Rewrite over a blocked temp path succeeded")
	}
	if err := os.RemoveAll(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "two")

	// Closing the old handle swaps the renamed file for a directory, so the
	// reopen fails after the rename succeeded.
	WrapFaulty(l).Trace = func(op string, _ []byte) {
		if op == "close" {
			os.Remove(path)
			os.Mkdir(path, 0o755)
		}
	}
	if err := l.Rewrite([][]byte{[]byte("two")}); err == nil {
		t.Fatal("Rewrite whose reopen fails reported success")
	}
	if err := l.Append([]byte("lost"), true); err == nil {
		t.Error("append acknowledged into the unlinked file after a failed reopen")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file after failed rewrites: %v", err)
	}
}

// TestWriteFileAtomic: the file is replaced whole with the permissions
// asked for, and a failed write leaves the old contents and no temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "acl.json")
	for _, body := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil || string(raw) != body {
			t.Fatalf("read back %q, %v; want %q", raw, err, body)
		}
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o600 {
		t.Errorf("mode = %v, want 0600", fi.Mode().Perm())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %v", entries)
	}
	target := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(target, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("x"), 0o644); err == nil {
		t.Error("replacing a non-empty directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file after a failed rename: %v", err)
	}
}

// FuzzLogOpen feeds arbitrary file contents to Open. Invariants: it never
// panics, the file is cut to exactly the frames the fold saw, reopening the
// cut file yields the same fold sequence, and an append after open is
// replayed behind them.
func FuzzLogOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode([]byte(`{"id":"j-000001","status":"queued"}`)))
	f.Add(append(Encode([]byte("good")), Encode([]byte("cut-here"))[:5]...))
	f.Add(append(Encode([]byte("a")), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	path := filepath.Join(f.TempDir(), "x.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var first, second, third []string
		l, err := Open(path, collect(&first))
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, p := range first {
			want = append(want, Encode([]byte(p))...)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, want) || !bytes.HasPrefix(data, want) || l.Size() != int64(len(want)) {
			t.Fatalf("file after Open holds %d bytes, size %d; the %d frames folded make %d", len(raw), l.Size(), len(first), len(want))
		}
		l.Close(false)

		l, err = Open(path, collect(&second))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("reopen folded %q, first open %q", second, first)
		}
		if err := l.Append([]byte("appended"), false); err != nil {
			t.Fatal(err)
		}
		l.Close(false)
		if _, _, err := Replay(path, collect(&third)); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(third) != fmt.Sprint(append(second, "appended")) {
			t.Fatalf("after an append replay folded %q, want %q then the append", third, second)
		}
	})
}
