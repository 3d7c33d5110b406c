//go:build unix

package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/workspace"
)

// TestOneCommandPerDataDir: a command holds its data directory while it
// runs, so a second one fails at once instead of writing the same commit
// log and journal.
func TestOneCommandPerDataDir(t *testing.T) {
	srv := httptest.NewServer(cloud.NewServer(newSim(), quiet))
	defer srv.Close()
	c := newCLI(t, srv.URL)
	c.configure(baseConfig)

	holder := newCommon("plan")
	_ = holder.fs.Parse(c.flags)
	mgr, release, err := holder.openLocal(c.dataDir, workspace.Config{Dir: c.dir})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := c.run(cmdApply); err == nil || !strings.Contains(err.Error(), "in use by another cloudlessctl") {
		t.Errorf("apply on a data dir in use = %v, want a refusal\n%s", err, out)
	}
	if err := mgr.CloseAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	release()
	if creates, _ := c.planned(); creates != 4 {
		t.Errorf("plan once the data dir is free wants %d creates, want 4", creates)
	}
}
