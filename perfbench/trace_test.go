package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "evaluate", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "solve", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "solve", Start: 50 * ms, End: 90 * ms},
		{ID: 4, Parent: 2, Name: "cover", Start: 15 * ms, End: 25 * ms},
	}
	lt := summarize(spans)
	if got := lt.Self["evaluate"]; got != 30*ms {
		t.Errorf("evaluate self = %v, want 30ms", got)
	}
	if got := lt.Self["solve"]; got != 60*ms {
		t.Errorf("solve self = %v, want 60ms (70ms minus the 10ms cover child)", got)
	}
	if got, want := lt.Total["solve"], 70*ms; got != want || lt.Count["solve"] != 2 {
		t.Errorf("solve total = %v over %d spans, want %v over 2", got, lt.Count["solve"], want)
	}
	if lt.Self["cover"] != 10*ms {
		t.Errorf("leaf self = %v, want its whole 10ms", lt.Self["cover"])
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "load", Start: 0, End: 100 * ms},
		// Two parallel children overlapping on [20,30], one running past
		// its parent's end: covered time is [10,40] plus [90,100].
		{ID: 2, Parent: 1, Name: "req", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "req", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "req", Start: 90 * ms, End: 120 * ms},
	}
	if got := summarize(spans).Self["load"]; got != 60*ms {
		t.Errorf("load self = %v, want 60ms", got)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.begin("experiments.evaluate", 0, 7)
	_, endChild := tr.begin("partition.solve", root, 7)
	endChild()
	endRoot()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	child, parent := spans[0], spans[1]
	if child.Parent != parent.ID || parent.Parent != 0 || child.Op != 7 || parent.Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if child.Start < parent.Start || child.End > parent.End {
		t.Fatalf("child %v..%v outside parent %v..%v", child.Start, child.End, parent.Start, parent.End)
	}
	var off *tracer
	if id, end := off.begin("x", 0, 1); id != 0 || end == nil || off.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
}
