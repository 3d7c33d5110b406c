package main

// SD: the state engine with its commit log off and on (DESIGN.md S21). Two
// measurements per configuration:
//
//  1. engine-level reader/writer throughput: one writer committing batches
//     as fast as the engine allows while concurrent readers materialize
//     snapshots pinned at a serial inside the retention window;
//  2. stack-level plans completed during one in-flight apply: scale a web
//     tier out under a latency-scaled simulator and count how many offline
//     plans pinned at the pre-apply serial finish while the apply holds its
//     locks.
//
// Together they check that pinned reads stay consistent under write churn on
// both configurations and quantify what the log costs (fsync per commit).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
)

// jsonOutSD, when non-empty, receives machine-readable SD results.
var jsonOutSD string

type sdBackendResult struct {
	Backend          string  `json:"backend"`
	CommitsPerSec    float64 `json:"commits_per_sec"`
	SnapshotsPerSec  float64 `json:"snapshots_per_sec"`
	PinnedReads      bool    `json:"pinned_reads"`
	PlansDuringApply int     `json:"plans_during_apply"`
	ApplyMs          float64 `json:"apply_ms"`
}

type sdResult struct {
	Experiment string            `json:"experiment"`
	Readers    int               `json:"readers"`
	ChurnMs    float64           `json:"churn_ms"`
	Backends   []sdBackendResult `json:"backends"`
}

const (
	sdReaders = 4
	sdChurn   = 200 * time.Millisecond
)

func sd() {
	res := sdResult{Experiment: "SD", Readers: sdReaders, ChurnMs: float64(sdChurn.Milliseconds())}
	for _, backend := range statedb.Backends() {
		r := sdBackendResult{Backend: backend}
		r.CommitsPerSec, r.SnapshotsPerSec, r.PinnedReads = sdEngineChurn(backend)
		r.PlansDuringApply, r.ApplyMs = sdPlanDuringApply(backend)
		res.Backends = append(res.Backends, r)
	}

	rows := [][]string{}
	for _, r := range res.Backends {
		rows = append(rows, []string{
			r.Backend,
			fmt.Sprintf("%.0f/s", r.CommitsPerSec),
			fmt.Sprintf("%.0f/s", r.SnapshotsPerSec),
			fmt.Sprintf("%v", r.PinnedReads),
			fmt.Sprintf("%d", r.PlansDuringApply),
			fmt.Sprintf("%.0fms", r.ApplyMs),
		})
	}
	table("backend\tcommits\tsnapshots\tpinned reads\tplans during apply\tapply wall", rows)

	if jsonOutSD != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutSD, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutSD)
	}
}

// sdEngine builds one engine of the given backend (wal over a throwaway
// temp dir) and hands back a cleanup.
func sdEngine(backend string) (*statedb.Engine, func()) {
	opts := statedb.EngineOptions{}
	cleanup := func() {}
	if backend == statedb.BackendWAL {
		dir, err := os.MkdirTemp("", "cloudless-sd-*")
		if err != nil {
			panic(err)
		}
		opts.Dir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	eng, err := statedb.NewEngine(backend, nil, opts)
	if err != nil {
		panic(err)
	}
	return eng, func() { eng.Close(); cleanup() }
}

// sdEngineChurn runs one writer against sdReaders snapshotting readers for
// sdChurn and reports commit and snapshot throughput, plus whether every
// pinned read answered at its pin. A reader pins the head and keeps reading
// there while commits land, until the serial leaves the engine's retention
// window (ErrNoSuchSerial); then it pins the head again.
func sdEngineChurn(backend string) (commitsPerSec, snapshotsPerSec float64, pinnedOK bool) {
	eng, cleanup := sdEngine(backend)
	defer cleanup()

	const addrs = 32
	for i := 0; i < addrs; i++ {
		if _, err := eng.Commit(sdBatch(i, 0)); err != nil {
			panic(err)
		}
	}
	var commits, snapshots, unpinned atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < sdReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pin := eng.Serial()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := eng.Snapshot(pin)
				if errors.Is(err, statedb.ErrNoSuchSerial) {
					pin = eng.Serial()
					continue
				}
				if err != nil {
					panic(err)
				}
				snapshots.Add(1)
				if s.Serial != pin {
					unpinned.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	deadline := start.Add(sdChurn)
	i := 0
	for time.Now().Before(deadline) {
		if _, err := eng.Commit(sdBatch(i%addrs, i)); err != nil {
			panic(err)
		}
		commits.Add(1)
		i++
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(commits.Load()) / elapsed, float64(snapshots.Load()) / elapsed, unpinned.Load() == 0
}

func sdBatch(slot, n int) *statedb.Batch {
	addr := fmt.Sprintf("aws_vpc.sd%d", slot)
	return &statedb.Batch{
		Base: statedb.BaseUnchecked,
		Desc: "sd churn",
		Writes: map[string]*state.ResourceState{addr: {
			Addr: addr, Type: "aws_vpc", ID: addr,
			Attrs: map[string]eval.Value{"n": eval.Int(n)},
		}},
	}
}

const sdStackConfig = `
variable "vm_count" {
  type    = number
  default = 2
}
resource "aws_vpc" "net" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.net.id
  cidr_block = cidrsubnet(aws_vpc.net.cidr_block, 8, 1)
}
resource "aws_network_interface" "web" {
  count     = var.vm_count
  name      = "web-nic-${count.index}"
  subnet_id = aws_subnet.app.id
}
resource "aws_virtual_machine" "web" {
  count   = var.vm_count
  name    = "web-${count.index}"
  nic_ids = [aws_network_interface.web[count.index].id]
}
`

// sdPlanDuringApply deploys a 2-VM tier, scales it to 6 under a
// latency-scaled simulator, and counts plans completed while the apply is in
// flight, each pinned at the pre-apply serial.
func sdPlanDuringApply(backend string) (plans int, applyMs float64) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0.0005 // 15s modeled VM create -> ~7.5ms wall
	sim := cloud.NewSim(opts)

	stateDir := ""
	if backend == statedb.BackendWAL {
		dir, err := os.MkdirTemp("", "cloudless-sd-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	s, err := cloudless.Open(cloudless.Options{
		Sources:      map[string]string{"main.ccl": sdStackConfig},
		Cloud:        sim,
		StateBackend: backend,
		StateDir:     stateDir,
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()

	ctx := context.Background()
	p, err := s.Plan(ctx)
	if err != nil {
		panic(err)
	}
	if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
		panic(err)
	}
	pin := s.DB().Serial()
	if err := s.SetVar("vm_count", 6); err != nil {
		panic(err)
	}
	scaleOut, err := s.PlanOffline(ctx)
	if err != nil {
		panic(err)
	}

	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		if _, _, err := s.Apply(ctx, scaleOut, cloudless.ApplyOptions{}); err != nil {
			panic(err)
		}
	}()
	for {
		select {
		case <-done:
			return plans, float64(time.Since(start).Milliseconds())
		default:
		}
		if _, err := s.PlanOfflineAt(ctx, pin); err != nil {
			panic(err)
		}
		plans++
	}
}
