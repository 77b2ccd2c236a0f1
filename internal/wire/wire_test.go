package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/heatmap"
)

// fullState exercises every field the codec carries, including the
// nil-vs-empty cases that decide between null and [] in the heat map's
// JSON rendering.
func fullState() *apidto.StateV1DTO {
	return &apidto.StateV1DTO{
		Description: "Pivot on \"forrest gump\" → films",
		Entities: []apidto.EntityDTO{
			{ID: 7, Name: "Forrest Gump", Score: 0.9231, Type: "film"},
			{ID: 12, Name: "Tom Hanks", Score: math.Pi},
			{ID: 0, Name: "", Score: 0},
		},
		Features: []apidto.FeatureDTO{
			{Label: "starring → actor", AnchorID: 12, R: 0.75, ExtentSize: 41},
			{Label: "director", AnchorID: 3, R: -0.25, ExtentSize: 0},
		},
		Heat: &heatmap.Matrix{
			Entities: []heatmap.EntityAxis{
				{ID: 7, Name: "Forrest Gump", Score: 0.9231},
				{ID: 12, Name: "Tom Hanks", Score: 0.5},
			},
			Features: []heatmap.FeatureAxis{
				{Label: "starring", R: 0.75},
			},
			Values: [][]float64{
				{0.25, math.SmallestNonzeroFloat64},
				nil,
				{},
			},
			Level: [][]int{
				{0, 6},
				nil,
				{},
			},
		},
		Timeline: []apidto.TimelineDTO{
			{Step: 0, Kind: "query", Label: "forrest gump", ChangesQuery: true},
			{Step: 1, Kind: "pivot", Label: "starring", RevisitOf: -1},
		},
		Fallback: true,
	}
}

func sparseState() *apidto.StateV1DTO {
	return &apidto.StateV1DTO{Description: "only a description"}
}

// mustJSON is the byte-identity yardstick: two DTOs are equivalent iff
// encoding/json renders them identically, because that rendering is the
// public /api/v1 contract.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return b
}

func TestStateRoundTripJSONIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *apidto.StateV1DTO
	}{
		{"full", fullState()},
		{"sparse", sparseState()},
		{"emptyHeat", &apidto.StateV1DTO{Description: "x", Heat: &heatmap.Matrix{}}},
		{"emptyAxes", &apidto.StateV1DTO{
			Description: "x",
			Heat: &heatmap.Matrix{
				Entities: []heatmap.EntityAxis{},
				Features: []heatmap.FeatureAxis{},
				Values:   [][]float64{},
				Level:    [][]int{},
			},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := AppendState(nil, tc.st)
			var got apidto.StateV1DTO
			if err := DecodeState(enc, &got); err != nil {
				t.Fatalf("DecodeState: %v", err)
			}
			want, have := mustJSON(t, tc.st), mustJSON(t, &got)
			if !bytes.Equal(want, have) {
				t.Fatalf("JSON drift after wire round-trip:\nwant %s\ngot  %s", want, have)
			}
		})
	}
}

// TestDecodeStateReuse decodes a full state, then a sparse one, then a
// full one again into the SAME target — the router's per-shard scratch
// pattern. The sparse decode must not leak the previous decode's
// entities/heat/timeline, and the re-decode must be exact.
func TestDecodeStateReuse(t *testing.T) {
	full := AppendState(nil, fullState())
	sparse := AppendState(nil, sparseState())

	var st apidto.StateV1DTO
	if err := DecodeState(full, &st); err != nil {
		t.Fatalf("decode full: %v", err)
	}
	if err := DecodeState(sparse, &st); err != nil {
		t.Fatalf("decode sparse into reused target: %v", err)
	}
	if got, want := mustJSON(t, &st), mustJSON(t, sparseState()); !bytes.Equal(got, want) {
		t.Fatalf("reused target leaked prior decode:\nwant %s\ngot  %s", want, got)
	}
	if err := DecodeState(full, &st); err != nil {
		t.Fatalf("re-decode full: %v", err)
	}
	if got, want := mustJSON(t, &st), mustJSON(t, fullState()); !bytes.Equal(got, want) {
		t.Fatalf("re-decode into reused target drifted:\nwant %s\ngot  %s", want, got)
	}
}

func TestOpsResponseRoundTrip(t *testing.T) {
	enc := AppendOpsResponse(nil, 5, fullState())
	var applied int
	var st apidto.StateV1DTO
	if err := DecodeOpsResponse(enc, &applied, &st); err != nil {
		t.Fatalf("DecodeOpsResponse: %v", err)
	}
	if applied != 5 {
		t.Fatalf("applied = %d, want 5", applied)
	}
	want := mustJSON(t, apidto.OpsResponse{Applied: 5, State: *fullState()})
	got := mustJSON(t, apidto.OpsResponse{Applied: applied, State: st})
	if !bytes.Equal(want, got) {
		t.Fatalf("ops response drift:\nwant %s\ngot  %s", want, got)
	}
}

func sampleOps() []core.OpDTO {
	return []core.OpDTO{
		{Op: "submit", Keywords: "forrest gump"},
		{Op: "pivot_entity", Entity: "Tom Hanks", EntityID: 12},
		{Op: "pivot_feature", Feature: "starring"},
		{Op: "undo", Step: -2},
	}
}

func TestOpsRequestRoundTrip(t *testing.T) {
	for _, include := range []string{"", "entities,heat"} {
		enc := AppendOpsRequest(nil, sampleOps(), include)
		ops, inc, err := DecodeOpsRequest(enc)
		if err != nil {
			t.Fatalf("DecodeOpsRequest: %v", err)
		}
		if inc != include {
			t.Fatalf("include = %q, want %q", inc, include)
		}
		if !reflect.DeepEqual(ops, sampleOps()) {
			t.Fatalf("ops drift: %+v", ops)
		}
	}
	// Empty batch round-trips to nil ops, not a panic.
	ops, _, err := DecodeOpsRequest(AppendOpsRequest(nil, nil, "x"))
	if err != nil || ops != nil {
		t.Fatalf("empty batch: ops=%v err=%v", ops, err)
	}
}

func TestSessionFileRoundTrip(t *testing.T) {
	enc := AppendSessionFile(nil, 2, sampleOps())
	ver, ops, err := DecodeSessionFile(enc)
	if err != nil {
		t.Fatalf("DecodeSessionFile: %v", err)
	}
	if ver != 2 {
		t.Fatalf("version = %d, want 2", ver)
	}
	if !reflect.DeepEqual(ops, sampleOps()) {
		t.Fatalf("ops drift: %+v", ops)
	}
}

// TestKindMismatch: a valid message of one kind must be rejected with a
// typed error by every other kind's decoder, never misparsed.
func TestKindMismatch(t *testing.T) {
	state := AppendState(nil, fullState())
	var de *DecodeError
	if _, _, err := DecodeOpsRequest(state); !errors.As(err, &de) {
		t.Fatalf("DecodeOpsRequest(state message) = %v, want *DecodeError", err)
	}
	var applied int
	var st apidto.StateV1DTO
	if err := DecodeOpsResponse(state, &applied, &st); !errors.As(err, &de) {
		t.Fatalf("DecodeOpsResponse(state message) = %v, want *DecodeError", err)
	}
}

// TestTruncationTyped: every proper prefix of a valid encoding either
// decodes cleanly (section streams may end early at a section boundary)
// or fails with a typed *DecodeError — never a panic, never an
// untyped error.
func TestTruncationTyped(t *testing.T) {
	enc := AppendOpsResponse(nil, 3, fullState())
	for cut := 0; cut < len(enc); cut++ {
		var applied int
		var st apidto.StateV1DTO
		err := DecodeOpsResponse(enc[:cut], &applied, &st)
		if err == nil {
			continue
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("cut=%d: error %v is not a *DecodeError", cut, err)
		}
		if de.Off < 0 || de.Off > cut {
			t.Fatalf("cut=%d: offset %d out of range", cut, de.Off)
		}
	}
}

// TestCorruptHeaderTyped covers the rejects the truncation sweep can't
// reach: wrong magic, future version, unknown kind.
func TestCorruptHeaderTyped(t *testing.T) {
	var st apidto.StateV1DTO
	var de *DecodeError
	for _, b := range [][]byte{
		{'X', 'V', 'W', 1, kindState},
		{'P', 'V', 'W', 99, kindState},
		{'P', 'V', 'W', 1, 42},
		{},
	} {
		if err := DecodeState(b, &st); !errors.As(err, &de) {
			t.Fatalf("header %v: error %v is not a *DecodeError", b, err)
		}
	}
}

// TestCountGuard: a count field claiming more elements than the input
// could hold must be rejected before allocation, not after.
func TestCountGuard(t *testing.T) {
	b := appendHeader(nil, kindOpsRequest)
	b = appendString(b, "")
	// Claim 2^40 ops with two bytes of payload behind the claim.
	b = appendUvarint(b, 1<<40)
	b = append(b, 0, 0)
	_, _, err := DecodeOpsRequest(b)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("oversized count: %v, want *DecodeError", err)
	}
}

// TestUnknownSectionSkipped: decoders must step over section ids they
// don't know — that is the forward-compatibility contract.
func TestUnknownSectionSkipped(t *testing.T) {
	enc := AppendState(nil, sparseState())
	enc = append(enc, 200)              // unknown section id
	enc = appendUvarint(enc, 3)         // 3-byte payload
	enc = append(enc, 0xde, 0xad, 0xbf) // opaque future data
	enc = appendSection(enc, secFallback, func(d []byte) []byte {
		return appendBool(d, true)
	})
	var st apidto.StateV1DTO
	if err := DecodeState(enc, &st); err != nil {
		t.Fatalf("DecodeState with unknown section: %v", err)
	}
	if st.Description != "only a description" || !st.Fallback {
		t.Fatalf("sections around the unknown one lost: %+v", st)
	}
}

func TestAppendStateNoAllocsOnWarmDst(t *testing.T) {
	st := fullState()
	dst := AppendState(nil, st)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendState(dst[:0], st)
	})
	if allocs > 0 {
		t.Fatalf("AppendState into warm buffer allocates %.0f/op, want 0", allocs)
	}
}

// FuzzDecodeWire drives all four decoders over arbitrary bytes: no
// panics, every failure a typed *DecodeError, and anything that decodes
// must survive a re-encode → re-decode loop with identical JSON (so a
// lucky parse can't smuggle in a state the encoder couldn't produce
// without the round-trip exposing it).
func FuzzDecodeWire(f *testing.F) {
	f.Add(AppendState(nil, fullState()))
	f.Add(AppendState(nil, sparseState()))
	f.Add(AppendOpsResponse(nil, 3, fullState()))
	f.Add(AppendOpsRequest(nil, sampleOps(), "entities"))
	f.Add(AppendSessionFile(nil, 2, sampleOps()))
	f.Add([]byte{'P', 'V', 'W', 1, kindState})
	f.Add([]byte{'P', 'V', 'W', 2, kindState, 0, 0})
	f.Add([]byte{})

	check := func(t *testing.T, err error) {
		if err == nil {
			return
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var st apidto.StateV1DTO
		if err := DecodeState(data, &st); err == nil {
			enc := AppendState(nil, &st)
			var st2 apidto.StateV1DTO
			if err := DecodeState(enc, &st2); err != nil {
				t.Fatalf("re-decode of re-encoded state: %v", err)
			}
			a, _ := json.Marshal(&st)
			b, _ := json.Marshal(&st2)
			if !bytes.Equal(a, b) {
				t.Fatalf("state re-encode drift:\n%s\n%s", a, b)
			}
		} else {
			check(t, err)
		}

		var applied int
		var or apidto.StateV1DTO
		check(t, DecodeOpsResponse(data, &applied, &or))

		if ops, include, err := DecodeOpsRequest(data); err == nil {
			ops2, include2, err := DecodeOpsRequest(AppendOpsRequest(nil, ops, include))
			if err != nil || include2 != include || !reflect.DeepEqual(ops, ops2) {
				t.Fatalf("ops request re-encode drift: %v", err)
			}
		} else {
			check(t, err)
		}

		if ver, ops, err := DecodeSessionFile(data); err == nil {
			ver2, ops2, err := DecodeSessionFile(AppendSessionFile(nil, ver, ops))
			if err != nil || ver2 != ver || !reflect.DeepEqual(ops, ops2) {
				t.Fatalf("session file re-encode drift: %v", err)
			}
		} else {
			check(t, err)
		}
	})
}
