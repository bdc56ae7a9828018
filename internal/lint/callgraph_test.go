package lint

import (
	"path/filepath"
	"testing"
)

// loadTestIndex loads and type-checks the fixture tree.
func loadTestIndex(t *testing.T) *Index {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return loadTree(t, root)
}

// TestCallGraphSummaries pins the one-level facts the CFG-layer rules
// consume: blocking callees, WaitGroup parameter behavior, direct lock
// acquisitions, and scratch-parameter escapes.
func TestCallGraphSummaries(t *testing.T) {
	idx := loadTestIndex(t)
	cg := idx.callGraph()

	flush := cg.summaries["internal/vcu/held.mailbox.flush"]
	if flush == nil {
		t.Fatal("no summary for held.mailbox.flush")
	}
	if !flush.blocking {
		t.Error("flush ranges over a channel: summary must be blocking")
	}

	worker := cg.summaries["internal/vcu/fanout.worker"]
	if worker == nil {
		t.Fatal("no summary for fanout.worker")
	}
	wf, ok := worker.wgParams[0]
	if !ok {
		t.Fatal("worker's *sync.WaitGroup parameter not detected")
	}
	if !wf.doneEver || !wf.doneAlways || wf.addsInside {
		t.Errorf("worker facts wrong: %+v", wf)
	}

	leaky := cg.summaries["internal/vcu/fanout.leakyWorker"]
	if leaky == nil {
		t.Fatal("no summary for fanout.leakyWorker")
	}
	lf, ok := leaky.wgParams[0]
	if !ok {
		t.Fatal("leakyWorker's *sync.WaitGroup parameter not detected")
	}
	if !lf.doneEver || lf.doneAlways {
		t.Errorf("leakyWorker misses Done on the early-return path: %+v", lf)
	}

	reset := cg.summaries["internal/vcu/ordering.Device.reset"]
	if reset == nil {
		t.Fatal("no summary for ordering.Device.reset")
	}
	if _, ok := reset.acquires["internal/vcu/ordering.Device.mu"]; !ok {
		t.Errorf("reset must be summarized as acquiring Device.mu, got %v", reset.acquires)
	}

	escapes := cg.summaries["internal/enc.returnScratch"]
	if escapes == nil {
		t.Fatal("no summary for enc.returnScratch")
	}
	if !escapes.scratchEscapes {
		t.Error("returnScratch returns its scratch parameter: must escape")
	}
	clean := cg.summaries["internal/enc.fieldUse"]
	if clean == nil {
		t.Fatal("no summary for enc.fieldUse")
	}
	if clean.scratchEscapes {
		t.Error("fieldUse only reads its scratch parameter: must not escape")
	}
}

// TestCallGraphIsLazyAndCached verifies the build happens once per
// Index.
func TestCallGraphIsLazyAndCached(t *testing.T) {
	idx := loadTestIndex(t)
	if idx.cg != nil {
		t.Fatal("call graph must not be built before first use")
	}
	cg := idx.callGraph()
	if cg == nil || idx.callGraph() != cg {
		t.Fatal("call graph must be cached on the index")
	}
}
