package acstab_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"acstab"
)

// ladder builds an n-stage RC ladder driven by a DC source — enough
// nodes that an all-nodes run takes many linear solves, so a canceled
// run returning promptly is observable.
func ladder(n int) *acstab.Circuit {
	c := acstab.NewCircuit("cancel ladder")
	c.AddVDC("v1", "n0", "0", 1)
	for i := 0; i < n; i++ {
		c.AddR(fmt.Sprintf("r%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), 1e3)
		c.AddC(fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i+1), "0", 1e-9)
	}
	return c
}

func TestAnalyzeAllNodesCanceledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := acstab.AnalyzeAllNodesContext(ctx, ladder(40), acstab.DefaultOptions())
	if err == nil {
		t.Fatal("canceled run should fail")
	}
	if !errors.Is(err, acstab.ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-canceled run took %s, want immediate return", d)
	}
}

func TestAnalyzeAllNodesCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// A dense sweep keeps the uncanceled run (about 0.2 s on a 2-vCPU
	// Xeon VM) far longer than the 10 ms cancel delay; at the default 40
	// points per decade this ladder finishes before the cancel lands.
	opts := acstab.DefaultOptions()
	opts.PointsPerDecade = 2000
	start := time.Now()
	_, err := acstab.AnalyzeAllNodesContext(ctx, ladder(60), opts)
	elapsed := time.Since(start)
	if !errors.Is(err, acstab.ErrCanceled) {
		t.Fatalf("mid-run cancel: err = %v, want ErrCanceled", err)
	}
	// The run must stop within one unit of work (at most two frequency
	// points) of the cancellation, not finish the sweep. Full runs on this ladder take far longer than the
	// generous bound here.
	if elapsed > 5*time.Second {
		t.Errorf("canceled run took %s, want prompt abort", elapsed)
	}
}

func TestAnalyzeAllNodesDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := acstab.AnalyzeAllNodesContext(ctx, ladder(60), acstab.DefaultOptions())
	if !errors.Is(err, acstab.ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
}

func TestSentinelsCrossAPIBoundary(t *testing.T) {
	ctx := context.Background()
	ckt := ladder(3)
	if _, err := acstab.AnalyzeNodeContext(ctx, ckt, "nosuch", acstab.DefaultOptions()); !errors.Is(err, acstab.ErrUnknownNode) {
		t.Errorf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	// Context cancellation surfaces through the single-node entry point
	// and the simulation entry points too.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := acstab.AnalyzeNodeContext(canceled, ckt, "n1", acstab.DefaultOptions()); !errors.Is(err, acstab.ErrCanceled) {
		t.Errorf("AnalyzeNodeContext: err = %v, want ErrCanceled", err)
	}
	if _, err := ckt.ACSweepContext(canceled, 1e3, 1e9, 10); !errors.Is(err, acstab.ErrCanceled) {
		t.Errorf("ACSweepContext: err = %v, want ErrCanceled", err)
	}
	if _, err := ckt.TransientContext(canceled, 1e-6, 1e-9); !errors.Is(err, acstab.ErrCanceled) {
		t.Errorf("TransientContext: err = %v, want ErrCanceled", err)
	}
	if _, err := ckt.PolesContext(canceled, 1e3, 1e9); !errors.Is(err, acstab.ErrCanceled) {
		t.Errorf("PolesContext: err = %v, want ErrCanceled", err)
	}
}
