package faults

import (
	"fmt"
	"testing"
	"time"
)

// replayIO runs a fixed operation sequence through a fresh injector and
// returns the decisions.
func replayIO(seed int64, rates IORates) ([]IODecision, IOStats) {
	in := NewIO(seed, rates)
	ops := []struct {
		op   IOOp
		size int
	}{
		{OpWrite, 100}, {OpSync, 0}, {OpRename, 0}, {OpRead, 100},
		{OpWrite, 4096}, {OpSync, 0}, {OpRead, 4096}, {OpWrite, 7},
		{OpRead, 7}, {OpRename, 0}, {OpSync, 0}, {OpRead, 1 << 20},
	}
	var out []IODecision
	for _, o := range ops {
		out = append(out, in.PlanOp(o.op, o.size))
	}
	return out, in.Stats()
}

func TestIODeterminism(t *testing.T) {
	rates := IORates{ShortWrite: 0.4, ReadCorrupt: 0.4, SyncErr: 0.4, RenameErr: 0.4, Stall: 0.2}
	d1, s1 := replayIO(11, rates)
	d2, s2 := replayIO(11, rates)
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	if s1.Total() == 0 {
		t.Fatal("high rates injected nothing — draw plumbing broken")
	}
	_, s3 := replayIO(12, rates)
	if s1 == s3 {
		t.Error("different seeds produced identical stats (suspicious)")
	}
}

func TestIOApplicability(t *testing.T) {
	// With only the write-class rate set, no fault may ever fire on a
	// non-write op.
	in := NewIO(3, IORates{ShortWrite: 1})
	for i := 0; i < 50; i++ {
		if d := in.PlanOp(OpSync, 0); d.Kind != IONone {
			t.Fatalf("sync op %d got %v from a write-only rate set", i, d.Kind)
		}
		if d := in.PlanOp(OpRead, 64); d.Kind != IONone {
			t.Fatalf("read op %d got %v from a write-only rate set", i, d.Kind)
		}
		d := in.PlanOp(OpWrite, 64)
		if d.Kind != IOShortWrite {
			t.Fatalf("write op %d got %v, want short write at rate 1", i, d.Kind)
		}
		if d.Keep < 0 || d.Keep >= 64 {
			t.Fatalf("short write keeps %d of 64 bytes", d.Keep)
		}
	}
	st := in.Stats()
	if st.Ops != 150 || st.ShortWrites != 50 || st.Total() != 50 {
		t.Errorf("stats = %+v, want 150 ops, 50 short writes", st)
	}
}

func TestIOSchedule(t *testing.T) {
	in := NewIO(1, IORates{})
	in.ScheduleOp(1, IOSyncErr)
	in.ScheduleOp(2, IOSyncErr) // op 2 is a write: inapplicable, degrades to none
	in.ScheduleOp(3, IOStall)
	if d := in.PlanOp(OpSync, 0); d.Kind != IONone {
		t.Errorf("op 0 = %v, want none", d.Kind)
	}
	if d := in.PlanOp(OpSync, 0); d.Kind != IOSyncErr {
		t.Errorf("op 1 = %v, want scheduled sync error", d.Kind)
	}
	if d := in.PlanOp(OpWrite, 8); d.Kind != IONone {
		t.Errorf("op 2 = %v, want none (sync error cannot afflict a write)", d.Kind)
	}
	d := in.PlanOp(OpRead, 8)
	if d.Kind != IOStall || d.Stall <= 0 || d.Stall > time.Millisecond {
		t.Errorf("op 3 = %+v, want bounded stall", d)
	}
	if st := in.Stats(); st.SyncErrs != 1 || st.Stalls != 1 || st.Total() != 2 {
		t.Errorf("stats = %+v, want 1 sync error + 1 stall", st)
	}
}

func TestIOReadCorruptBitBounded(t *testing.T) {
	in := NewIO(9, IORates{ReadCorrupt: 1})
	for i := 0; i < 100; i++ {
		size := 1 + i%17
		d := in.PlanOp(OpRead, size)
		if d.Kind != IOReadCorrupt {
			t.Fatalf("read %d got %v", i, d.Kind)
		}
		if d.Bit < 0 || d.Bit >= size*8 {
			t.Fatalf("read %d of %d bytes corrupts bit %d", i, size, d.Bit)
		}
	}
}

// String names the operation.
func (op IOOp) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	}
	return fmt.Sprintf("IOOp(%d)", int(op))
}
