package simtrace

import (
	"bytes"
	"testing"
)

// drive issues a representative event sequence against c.
func drive(c Collector) {
	c.Begin("solve")
	c.Rounds(EngineCongest, 3)
	c.Begin("precond")
	c.Messages(EngineCongest, 4, 7)
	c.Rounds(EngineLayered, 2)
	c.End("precond")
	c.Counter("ncc.drops", 5)
	c.Messages(EngineNCC, NoEdge, 9)
	c.End("solve")
	c.Rounds(EngineCongest, 1) // untracked
}

// TestReplayEquivalence pins the Recorder contract: tracing into a
// Recorder and replaying it into a JSONL sink produces the same bytes as
// tracing into the JSONL sink directly.
func TestReplayEquivalence(t *testing.T) {
	var direct bytes.Buffer
	jd := NewJSONL(&direct)
	drive(jd)
	if err := jd.Flush(); err != nil {
		t.Fatal(err)
	}

	rec := NewRecorder()
	drive(rec)
	var replayed bytes.Buffer
	jr := NewJSONL(&replayed)
	rec.Replay(jr)
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(direct.Bytes(), replayed.Bytes()) {
		t.Fatalf("replay diverged:\ndirect:\n%s\nreplayed:\n%s", direct.String(), replayed.String())
	}
	if direct.Len() == 0 {
		t.Fatal("the driver emitted no events, so the replay proves nothing")
	}
}

// TestReplayAggregates checks replay into an InMemory collector reproduces
// the aggregate summaries.
func TestReplayAggregates(t *testing.T) {
	rec := NewRecorder()
	drive(rec)
	m := NewInMemory()
	rec.Replay(m)
	if got := m.EngineRounds(EngineCongest); got != 4 {
		t.Fatalf("congest rounds: got %d, want 4", got)
	}
	if got := m.PhaseRounds("solve"); got != 3 {
		t.Fatalf("solve exclusive rounds: got %d, want 3", got)
	}
	if got := m.CounterValue("ncc.drops"); got != 5 {
		t.Fatalf("counter: got %d, want 5", got)
	}
}

// TestReplayNil checks nil-recorder Replay is a no-op.
func TestReplayNil(t *testing.T) {
	var r *Recorder
	r.Replay(NewInMemory())
}
