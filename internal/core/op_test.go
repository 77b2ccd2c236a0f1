package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pivote/internal/kgtest"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
)

func TestApplyTypedErrors(t *testing.T) {
	ctx := context.Background()
	e, f := newEngine(t)
	cases := []struct {
		name string
		op   Op
		kind ErrKind
	}{
		{"unknown entity", OpAddSeed(rdf.TermID(999999)), KindNotFound},
		{"pivot to non-entity", OpPivot(rdf.NoTerm), KindNotFound},
		{"lookup non-entity", OpLookup(rdf.TermID(999999)), KindNotFound},
		{"bad feature", OpAddFeature(semfeat.Feature{}), KindInvalid},
		{"revisit out of range", OpRevisit(99), KindInvalid},
		{"unknown kind", Op{Kind: OpKind("frobnicate")}, KindInvalid},
	}
	for _, tc := range cases {
		res, err := e.Apply(ctx, tc.op)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if res != nil {
			t.Fatalf("%s: non-nil result alongside error", tc.name)
		}
		if got := KindOf(err); got != tc.kind {
			t.Fatalf("%s: kind = %s, want %s", tc.name, got, tc.kind)
		}
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error is not *core.Error", tc.name)
		}
	}
	// LookupCtx surfaces the same taxonomy; nothing is recorded and the
	// zero profile comes back.
	if p, err := e.LookupCtx(ctx, rdf.TermID(999999)); err == nil || KindOf(err) != KindNotFound {
		t.Fatalf("LookupCtx on non-entity: (%+v, %v)", p, err)
	} else if p.Name != "" {
		t.Fatalf("failed LookupCtx returned a profile: %+v", p)
	}
	// Failed ops leave no trace: no actions, no ops, empty query.
	if e.Session().Len() != 0 || len(e.Ops()) != 0 {
		t.Fatalf("failed ops recorded state: %d actions, %d ops", e.Session().Len(), len(e.Ops()))
	}
	_ = f
}

func TestApplyCanceledLeavesSessionIntact(t *testing.T) {
	e, f := newEngine(t)
	ctx := context.Background()
	if _, err := e.Apply(ctx, OpSubmit("forrest gump")); err != nil {
		t.Fatal(err)
	}
	before := e.Session().Current()
	beforeLen := e.Session().Len()
	beforeOps := e.Ops()

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	res, err := e.Apply(canceled, OpAddSeed(f.E("Forrest_Gump")))
	if err == nil || res != nil {
		t.Fatalf("canceled Apply returned (%v, %v)", res, err)
	}
	if got := KindOf(err); got != KindCanceled {
		t.Fatalf("kind = %s, want %s", got, KindCanceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("typed error does not wrap context.Canceled")
	}

	// The session is exactly as before the canceled op.
	if got := e.Session().Current(); !reflect.DeepEqual(got, before) {
		t.Fatalf("live query corrupted: %+v vs %+v", got, before)
	}
	if e.Session().Len() != beforeLen {
		t.Fatalf("timeline grew: %d vs %d", e.Session().Len(), beforeLen)
	}
	if !reflect.DeepEqual(e.Ops(), beforeOps) {
		t.Fatal("op log changed by a canceled op")
	}
	// And the engine still works.
	if _, err := e.Apply(ctx, OpAddSeed(f.E("Forrest_Gump"))); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx reports cancellation only after Err has been consulted n
// times — a deterministic stand-in for a context canceled mid-flight,
// deep inside the evaluation loops.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

func TestApplyAbortsInFlight(t *testing.T) {
	e, f := newEngine(t)
	if _, err := e.Apply(context.Background(), OpSubmit("forrest gump")); err != nil {
		t.Fatal(err)
	}
	before := e.Session().Current()
	beforeLen := e.Session().Len()

	// The op passes the pre-checks and mutates the session; cancellation
	// then fires inside evaluation (scatter/rank loops), which must
	// rewind the mutation.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(3)
	res, err := e.Apply(ctx, OpAddSeed(f.E("Forrest_Gump")))
	if err == nil || res != nil {
		t.Fatalf("in-flight cancel returned (%v, %v)", res, err)
	}
	if got := KindOf(err); got != KindCanceled {
		t.Fatalf("kind = %s, want %s", got, KindCanceled)
	}
	if got := e.Session().Current(); !reflect.DeepEqual(got, before) {
		t.Fatalf("in-flight cancel corrupted the query: %+v vs %+v", got, before)
	}
	if e.Session().Len() != beforeLen || len(e.Ops()) != 1 {
		t.Fatalf("in-flight cancel left %d actions / %d ops", e.Session().Len(), len(e.Ops()))
	}
	// The same op succeeds afterwards.
	if _, err := e.Apply(context.Background(), OpAddSeed(f.E("Forrest_Gump"))); err != nil {
		t.Fatal(err)
	}
}

func TestApplyFieldsLazyAssembly(t *testing.T) {
	ctx := context.Background()
	e, f := newEngine(t)

	res, err := e.ApplyFields(ctx, OpAddSeed(f.E("Forrest_Gump")), FieldEntities)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entities) == 0 {
		t.Fatal("no entities under FieldEntities")
	}
	if res.Heat != nil {
		t.Fatal("heat map built although not requested")
	}
	if res.Features != nil || res.Timeline != nil {
		t.Fatal("unrequested areas assembled")
	}

	full, err := e.EvaluateCtx(ctx, FieldsAll)
	if err != nil {
		t.Fatal(err)
	}
	if full.Heat == nil || len(full.Heat.Values) == 0 {
		t.Fatal("FieldsAll did not build the heat map")
	}
	if len(full.Timeline) != 1 {
		t.Fatalf("timeline = %d actions", len(full.Timeline))
	}

	// FieldNone: acknowledgement only.
	none, err := e.ApplyFields(ctx, OpLookup(f.E("Forrest_Gump")), FieldNone)
	if err != nil {
		t.Fatal(err)
	}
	if none.Entities != nil || none.Features != nil || none.Heat != nil || none.Timeline != nil {
		t.Fatal("FieldNone assembled interface areas")
	}
	if none.Description == "" {
		t.Fatal("FieldNone lost the query description")
	}
}

func TestApplyOpsBatchEquivalentToSequential(t *testing.T) {
	ctx := context.Background()
	f := kgtest.Build()
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	ops := []Op{
		OpSubmit("forrest gump"),
		OpAddSeed(f.E("Forrest_Gump")),
		OpAddFeature(th),
		OpRemoveFeature(th),
		OpPivot(f.E("Tom_Hanks")),
		OpRevisit(2),
	}

	seq := New(f.Graph, Options{TopEntities: 10, TopFeatures: 8})
	var want *Result
	for _, op := range ops {
		var err error
		want, err = seq.Apply(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
	}

	batch := New(f.Graph, Options{TopEntities: 10, TopFeatures: 8})
	got, applied, err := batch.ApplyOps(ctx, ops, FieldsAll)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(ops) {
		t.Fatalf("applied = %d, want %d", applied, len(ops))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("batch result differs from sequential:\nseq:   %+v\nbatch: %+v", want, got)
	}
}

func TestApplyOpsRollsBackAtomically(t *testing.T) {
	ctx := context.Background()
	e, f := newEngine(t)
	if _, err := e.Apply(ctx, OpSubmit("apollo")); err != nil {
		t.Fatal(err)
	}
	before := e.Session().Current()

	_, idx, err := e.ApplyOps(ctx, []Op{
		OpSubmit("forrest gump"),
		OpAddSeed(f.E("Forrest_Gump")),
		OpAddSeed(rdf.TermID(999999)), // fails here
		OpPivot(f.E("Tom_Hanks")),
	}, FieldsAll)
	if err == nil {
		t.Fatal("no error from failing batch")
	}
	if idx != 2 {
		t.Fatalf("failing op index = %d, want 2", idx)
	}
	if KindOf(err) != KindNotFound {
		t.Fatalf("kind = %s", KindOf(err))
	}
	// Nothing of the batch survived — not even the valid prefix.
	if got := e.Session().Current(); !reflect.DeepEqual(got, before) {
		t.Fatalf("batch partially applied: %+v", got)
	}
	if len(e.Ops()) != 1 {
		t.Fatalf("op log = %d ops, want 1", len(e.Ops()))
	}
}

func TestOpWireRoundTrip(t *testing.T) {
	f := kgtest.Build()
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	ops := []Op{
		OpSubmit("forrest gump"),
		OpAddSeed(f.E("Forrest_Gump")),
		OpRemoveSeed(f.E("Forrest_Gump")),
		OpAddFeature(th),
		OpRemoveFeature(th),
		OpLookup(f.E("Apollo_13")),
		OpPivot(f.E("Tom_Hanks")),
		OpRevisit(3),
	}
	for _, op := range ops {
		dto := EncodeOp(f.Graph, op)
		raw, err := json.Marshal(dto)
		if err != nil {
			t.Fatal(err)
		}
		var back OpDTO
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOp(f.Graph, back)
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if got != op {
			t.Fatalf("round trip changed op: %+v vs %+v", got, op)
		}
	}
}

func TestDecodeOpErrors(t *testing.T) {
	f := kgtest.Build()
	cases := []struct {
		name string
		dto  OpDTO
		kind ErrKind
	}{
		{"unknown kind", OpDTO{Op: "explode"}, KindInvalid},
		{"unknown entity name", OpDTO{Op: "add-entity", Entity: "Zzz_Nope"}, KindNotFound},
		{"bad entity id", OpDTO{Op: "pivot", EntityID: 999999}, KindNotFound},
		{"missing entity", OpDTO{Op: "lookup"}, KindInvalid},
		{"missing feature", OpDTO{Op: "add-feature"}, KindInvalid},
		{"bad feature label", OpDTO{Op: "add-feature", Feature: "garbage"}, KindInvalid},
	}
	for _, tc := range cases {
		_, err := DecodeOp(f.Graph, tc.dto)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if got := KindOf(err); got != tc.kind {
			t.Fatalf("%s: kind = %s, want %s", tc.name, got, tc.kind)
		}
	}
}

func TestParseFields(t *testing.T) {
	cases := []struct {
		in   string
		want Fields
		err  bool
	}{
		{"", FieldsAll, false},
		{"entities", FieldEntities, false},
		{"entities,heatmap", FieldEntities | FieldHeatmap, false},
		{" features , timeline ", FieldFeatures | FieldTimeline, false},
		{"entities,bogus", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseFields(tc.in)
		if tc.err {
			if err == nil {
				t.Fatalf("ParseFields(%q): no error", tc.in)
			}
			if KindOf(err) != KindInvalid {
				t.Fatalf("ParseFields(%q): kind = %s", tc.in, KindOf(err))
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseFields(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseFields(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSessionFileIsReplayableOpLog(t *testing.T) {
	ctx := context.Background()
	e, f := newEngine(t)
	if _, _, err := e.ApplyOps(ctx, []Op{
		OpSubmit("forrest gump"),
		OpAddSeed(f.E("Forrest_Gump")),
		OpPivot(f.E("Tom_Hanks")),
	}, FieldNone); err != nil {
		t.Fatal(err)
	}
	raw, err := e.SaveSession()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"version": 2`) || !strings.Contains(string(raw), `"op": "pivot"`) {
		t.Fatalf("session file is not a v2 op log:\n%s", raw)
	}

	// Loading on a freshly built graph replays the log: same op log, same
	// timeline, same live query.
	f2 := kgtest.Build()
	e2 := New(f2.Graph, Options{TopEntities: 10, TopFeatures: 8})
	if _, err := e2.LoadSessionCtx(ctx, raw); err != nil {
		t.Fatal(err)
	}
	if len(e2.Ops()) != 3 || e2.Session().Len() != 3 {
		t.Fatalf("replay produced %d ops / %d actions, want 3/3", len(e2.Ops()), e2.Session().Len())
	}
	if q := e2.Session().Current(); len(q.Seeds) != 1 || q.Seeds[0] != f2.E("Tom_Hanks") {
		t.Fatalf("live query after replay = %+v", q)
	}
	// A second save is byte-identical — the log is canonical.
	raw2, err := e2.SaveSession()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("op log changed across save/load/save")
	}
}

// TestLoadSessionRejectsV1: the retired v1 session format (per-action
// query snapshots) is refused like any other unknown version, and the
// refusal leaves the live session untouched.
func TestLoadSessionRejectsV1(t *testing.T) {
	ctx := context.Background()
	e, f := newEngine(t)
	if _, err := e.Apply(ctx, OpSubmit("apollo")); err != nil {
		t.Fatal(err)
	}
	before := e.Session().Current()
	beforeOps := e.Ops()
	gumpIRI := f.Graph.Dict().Term(f.E("Forrest_Gump")).Value
	v1 := `{
	  "version": 1,
	  "actions": [
	    {"step": 1, "kind": "submit", "query": {"keywords": "forrest gump"}},
	    {"step": 2, "kind": "add-entity", "query": {
	      "keywords": "forrest gump",
	      "seeds": ["` + gumpIRI + `"],
	      "features": ["Tom_Hanks:starring"]}}
	  ]
	}`
	res, err := e.LoadSessionCtx(ctx, []byte(v1))
	if err == nil || res != nil {
		t.Fatalf("v1 file loaded: (%v, %v)", res, err)
	}
	if KindOf(err) != KindInvalid || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 rejection = %s %v", KindOf(err), err)
	}
	if got := e.Session().Current(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rejected v1 load changed the query: %+v vs %+v", got, before)
	}
	if e.Session().Len() != 1 || !reflect.DeepEqual(e.Ops(), beforeOps) {
		t.Fatalf("rejected v1 load changed the log: %d actions, %d ops", e.Session().Len(), len(e.Ops()))
	}
}

func TestLoadSessionErrorsLeaveSessionIntact(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.Apply(ctx, OpSubmit("apollo")); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		kind ErrKind
	}{
		{"not json", "{bad", KindInvalid},
		{"bad version", `{"version": 7}`, KindInvalid},
		{"unknown entity", `{"version":2,"ops":[{"op":"add-entity","entity":"Zzz_Nope"}]}`, KindNotFound},
	}
	for _, tc := range cases {
		if _, err := e.LoadSessionCtx(ctx, []byte(tc.data)); err == nil {
			t.Fatalf("%s: no error", tc.name)
		} else if got := KindOf(err); got != tc.kind {
			t.Fatalf("%s: kind = %s, want %s", tc.name, got, tc.kind)
		}
	}
	if q := e.Session().Current(); q.Keywords != "apollo" {
		t.Fatalf("failed loads corrupted the session: %+v", q)
	}
	if len(e.Ops()) != 1 {
		t.Fatalf("op log = %d, want 1", len(e.Ops()))
	}
}
