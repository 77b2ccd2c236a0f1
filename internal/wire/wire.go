// Package wire is the compact binary codec for the payloads that cross
// the router↔shard hop: state pages, op-batch requests/responses and
// session files. It exists because the intra-cluster hop was paying the
// public API's JSON tax on every scatter — reflection-driven encoding,
// float formatting, token scanning — twice per hop, per shard, per
// request. The codec is hand-rolled over dense arrays (no reflection on
// either path), length-prefixed and versioned, and negotiated per hop
// via Accept/Content-Type with JSON remaining both the public client
// contract and the automatic fallback, so mixed-version clusters keep
// working and public responses stay byte-identical.
//
// # Format
//
// Every message starts with a five-byte header: the magic "PVW", a
// format version byte, and a message-kind byte. The body is a sequence
// of length-prefixed sections (one byte section id + uvarint payload
// length); decoders skip sections they do not know, which is the
// forward-compatibility story — a newer node may add sections, an older
// reader still decodes the ones it understands. Within sections,
// repeated records are stored as dense columns (all ids, then all
// scores, then all names) so fixed-width columns are straight memory
// copies; counts and ids are uvarints, scores and probabilities are raw
// IEEE-754 bits (bit-exact round-trips, unlike any decimal detour), and
// strings are uvarint-length-prefixed UTF-8.
//
// Nil-ness is significant for byte-identical JSON re-encoding (a nil
// slice vanishes under omitempty and renders as null inside the heat
// map, an empty one renders as []), so slice fields inside the heat map
// carry a tag: 0 encodes nil, n+1 encodes length n. Top-level state
// areas use section presence instead, mirroring their omitempty tags.
//
// Every decode failure is a typed *DecodeError carrying the byte
// offset; decoders validate counts against the remaining input before
// allocating, so corrupt or truncated bytes can neither panic nor bait
// attacker-sized allocations (fuzzed by FuzzDecodeWire).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/heatmap"
	"pivote/internal/rdf"
)

// ContentType is the negotiated media type of this codec. The router
// offers it with an Accept header; a shard that speaks it answers with
// this Content-Type (and advertises support on every negotiated route),
// and request bodies carry it once the router has seen the
// advertisement. Anything else on the hop is JSON.
const ContentType = "application/x-pivote-wire"

// Version is the format version stamped into every message header.
// Decoders reject other versions with a typed error, which surfaces as
// a JSON fallback at the negotiation layer — a mixed cluster degrades
// to the common denominator instead of corrupting responses.
const Version = 1

// Message kinds.
const (
	kindState       = 1 // a StateV1DTO
	kindOpsResponse = 2 // applied count + StateV1DTO
	kindOpsRequest  = 3 // op DTO batch + include selection
	kindSessionFile = 4 // versioned replayable op log
)

// State section ids.
const (
	secDescription = 1
	secEntities    = 2
	secFeatures    = 3
	secHeat        = 4
	secTimeline    = 5
	secFallback    = 6
)

// DecodeError is the typed failure of every decoder in this package:
// what went wrong and at which byte offset.
type DecodeError struct {
	Off int
	Msg string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: %s (offset %d)", e.Msg, e.Off)
}

// ---------------------------------------------------------------------
// Encoding primitives (append-style: zero allocations beyond dst growth)

func appendHeader(dst []byte, kind byte) []byte {
	return append(dst, 'P', 'V', 'W', Version, kind)
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendInt zigzag-encodes a signed int so small negatives stay small.
func appendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendSection frames body() under the given id: reserve, write, then
// back-patch the uvarint length. Lengths are written in full 10-byte
// form would waste space, so the body is built on a scratch tail and
// the prefix inserted — sections are small enough that the copy is
// cheaper than a second pass.
func appendSection(dst []byte, id byte, body func([]byte) []byte) []byte {
	dst = append(dst, id)
	start := len(dst)
	dst = body(dst)
	payload := len(dst) - start
	var pfx [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pfx[:], uint64(payload))
	dst = append(dst, pfx[:n]...)                 // grow by the prefix size
	copy(dst[start+n:], dst[start:start+payload]) // shift payload right
	copy(dst[start:], pfx[:n])                    // drop the prefix in front
	return dst
}

// ---------------------------------------------------------------------
// Decoding primitives

type reader struct {
	b   []byte
	off int
}

func (r *reader) fail(msg string) *DecodeError { return &DecodeError{Off: r.off, Msg: msg} }

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, r.fail("truncated: want 1 byte")
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail("bad uvarint")
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail("bad varint")
	}
	r.off += n
	return v, nil
}

// count reads an element count and rejects anything the remaining bytes
// cannot possibly hold (each element costs at least perElem bytes) — the
// guard that keeps corrupt counts from baiting huge allocations.
func (r *reader) count(perElem int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if perElem < 1 {
		perElem = 1
	}
	if v > uint64(r.remaining()/perElem) {
		return 0, r.fail(fmt.Sprintf("count %d exceeds remaining input", v))
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

// strInto decodes a string but returns old — allocation-free — when the
// bytes match it. Reused decode targets (the router's per-fan scratch)
// re-read the same names and labels far more often than not, and the
// equality check is cheaper than the copy it avoids. (string(b) == old
// compiles to a comparison, not a conversion.)
func (r *reader) strInto(old string) (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	if string(b) == old {
		return old, nil
	}
	return string(b), nil
}

func (r *reader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, r.fail("truncated float64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, r.fail(fmt.Sprintf("bad bool byte %d", b))
	}
}

func (r *reader) header(wantKind byte) error {
	if r.remaining() < 5 {
		return r.fail("truncated header")
	}
	if r.b[r.off] != 'P' || r.b[r.off+1] != 'V' || r.b[r.off+2] != 'W' {
		return r.fail("bad magic")
	}
	if v := r.b[r.off+3]; v != Version {
		return &DecodeError{Off: r.off + 3, Msg: fmt.Sprintf("unsupported format version %d", v)}
	}
	if k := r.b[r.off+4]; k != wantKind {
		return &DecodeError{Off: r.off + 4, Msg: fmt.Sprintf("message kind %d, want %d", k, wantKind)}
	}
	r.off += 5
	return nil
}

// ---------------------------------------------------------------------
// State

// AppendState encodes st after dst and returns the extended slice.
func AppendState(dst []byte, st *apidto.StateV1DTO) []byte {
	dst = appendHeader(dst, kindState)
	return appendStateBody(dst, st)
}

func appendStateBody(dst []byte, st *apidto.StateV1DTO) []byte {
	dst = appendSection(dst, secDescription, func(d []byte) []byte {
		return append(d, st.Description...)
	})
	if len(st.Entities) > 0 {
		dst = appendSection(dst, secEntities, func(d []byte) []byte {
			return appendEntities(d, st.Entities)
		})
	}
	if len(st.Features) > 0 {
		dst = appendSection(dst, secFeatures, func(d []byte) []byte {
			d = appendUvarint(d, uint64(len(st.Features)))
			for _, f := range st.Features {
				d = appendUvarint(d, uint64(f.AnchorID))
			}
			for _, f := range st.Features {
				d = appendF64(d, f.R)
			}
			for _, f := range st.Features {
				d = appendInt(d, f.ExtentSize)
			}
			for _, f := range st.Features {
				d = appendString(d, f.Label)
			}
			return d
		})
	}
	if st.Heat != nil {
		dst = appendSection(dst, secHeat, func(d []byte) []byte {
			return appendHeat(d, st.Heat)
		})
	}
	if len(st.Timeline) > 0 {
		dst = appendSection(dst, secTimeline, func(d []byte) []byte {
			d = appendUvarint(d, uint64(len(st.Timeline)))
			for _, t := range st.Timeline {
				d = appendInt(d, t.Step)
				d = appendString(d, t.Kind)
				d = appendString(d, t.Label)
				d = appendInt(d, t.RevisitOf)
				d = appendBool(d, t.ChangesQuery)
			}
			return d
		})
	}
	if st.Fallback {
		dst = appendSection(dst, secFallback, func(d []byte) []byte {
			return appendBool(d, true)
		})
	}
	return dst
}

func appendEntities(d []byte, ents []apidto.EntityDTO) []byte {
	d = appendUvarint(d, uint64(len(ents)))
	for _, e := range ents {
		d = appendUvarint(d, uint64(e.ID))
	}
	for _, e := range ents {
		d = appendF64(d, e.Score)
	}
	for _, e := range ents {
		d = appendString(d, e.Name)
	}
	for _, e := range ents {
		d = appendString(d, e.Type)
	}
	return d
}

// appendTagged writes the nil-aware length tag: 0 for nil, n+1 for a
// (possibly empty) slice of length n.
func appendTagged(d []byte, n int, isNil bool) []byte {
	if isNil {
		return appendUvarint(d, 0)
	}
	return appendUvarint(d, uint64(n)+1)
}

func appendHeat(d []byte, m *heatmap.Matrix) []byte {
	d = appendTagged(d, len(m.Entities), m.Entities == nil)
	for _, e := range m.Entities {
		d = appendUvarint(d, uint64(e.ID))
	}
	for _, e := range m.Entities {
		d = appendF64(d, e.Score)
	}
	for _, e := range m.Entities {
		d = appendString(d, e.Name)
	}
	d = appendTagged(d, len(m.Features), m.Features == nil)
	for _, f := range m.Features {
		d = appendF64(d, f.R)
	}
	for _, f := range m.Features {
		d = appendString(d, f.Label)
	}
	d = appendTagged(d, len(m.Values), m.Values == nil)
	for _, row := range m.Values {
		d = appendTagged(d, len(row), row == nil)
		for _, v := range row {
			d = appendF64(d, v)
		}
	}
	d = appendTagged(d, len(m.Level), m.Level == nil)
	for _, row := range m.Level {
		d = appendTagged(d, len(row), row == nil)
		for _, v := range row {
			d = appendInt(d, v)
		}
	}
	return d
}

// DecodeState decodes a state message into st, reusing st's slice and
// heat-map capacity from a previous decode (the router's per-shard
// scratch). Every field is reset first, so a reused target never leaks
// stale areas into a response that omitted them.
func DecodeState(b []byte, st *apidto.StateV1DTO) error {
	r := &reader{b: b}
	if err := r.header(kindState); err != nil {
		return err
	}
	return decodeStateBody(r, st)
}

func decodeStateBody(r *reader, st *apidto.StateV1DTO) error {
	// Capture reusable capacity, then hard-reset the target. The old
	// elements stay readable through the captured slices (same backing
	// arrays), so string fields survive until the moment strInto either
	// reuses or replaces them — every field IS overwritten on success.
	desc := st.Description
	ents := st.Entities[:0]
	feats := st.Features[:0]
	tl := st.Timeline[:0]
	heat := st.Heat
	*st = apidto.StateV1DTO{}
	// The section loop is inlined (rather than using r.sections with a
	// callback) so the sub-reader stays stack-allocated — this decoder is
	// the scatter hot path and runs once per shard per request.
	for r.remaining() > 0 {
		id, err := r.byte()
		if err != nil {
			return err
		}
		n, err := r.count(1)
		if err != nil {
			return err
		}
		sub := reader{b: r.b[:r.off+n], off: r.off}
		sr := &sub
		r.off += n
		switch id {
		case secDescription:
			if b := sr.b[sr.off:]; string(b) == desc {
				st.Description = desc
			} else {
				st.Description = string(b)
			}
		case secEntities:
			var err error
			if st.Entities, err = decodeEntities(sr, ents); err != nil {
				return err
			}
		case secFeatures:
			n, err := sr.count(1)
			if err != nil {
				return err
			}
			if cap(feats) >= n {
				feats = feats[:n]
			} else {
				feats = make([]apidto.FeatureDTO, n)
			}
			for i := range feats {
				v, err := sr.uvarint()
				if err != nil {
					return err
				}
				feats[i].AnchorID = uint32(v)
			}
			for i := range feats {
				v, err := sr.f64()
				if err != nil {
					return err
				}
				feats[i].R = v
			}
			for i := range feats {
				v, err := sr.varint()
				if err != nil {
					return err
				}
				feats[i].ExtentSize = int(v)
			}
			for i := range feats {
				s, err := sr.strInto(feats[i].Label)
				if err != nil {
					return err
				}
				feats[i].Label = s
			}
			st.Features = feats
		case secHeat:
			m, err := decodeHeat(sr, heat)
			if err != nil {
				return err
			}
			st.Heat = m
		case secTimeline:
			n, err := sr.count(1)
			if err != nil {
				return err
			}
			if cap(tl) >= n {
				tl = tl[:n]
			} else {
				tl = make([]apidto.TimelineDTO, n)
			}
			for i := range tl {
				step, err := sr.varint()
				if err != nil {
					return err
				}
				kind, err := sr.strInto(tl[i].Kind)
				if err != nil {
					return err
				}
				label, err := sr.strInto(tl[i].Label)
				if err != nil {
					return err
				}
				rev, err := sr.varint()
				if err != nil {
					return err
				}
				chg, err := sr.bool()
				if err != nil {
					return err
				}
				tl[i] = apidto.TimelineDTO{
					Step: int(step), Kind: kind, Label: label,
					RevisitOf: int(rev), ChangesQuery: chg,
				}
			}
			st.Timeline = tl
		case secFallback:
			v, err := sr.bool()
			if err != nil {
				return err
			}
			st.Fallback = v
		}
	}
	return nil
}

func decodeEntities(sr *reader, scratch []apidto.EntityDTO) ([]apidto.EntityDTO, error) {
	n, err := sr.count(1)
	if err != nil {
		return nil, err
	}
	ents := scratch
	if cap(ents) >= n {
		ents = ents[:n]
	} else {
		ents = make([]apidto.EntityDTO, n)
	}
	for i := range ents {
		v, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		ents[i].ID = uint32(v)
	}
	for i := range ents {
		v, err := sr.f64()
		if err != nil {
			return nil, err
		}
		ents[i].Score = v
	}
	for i := range ents {
		s, err := sr.strInto(ents[i].Name)
		if err != nil {
			return nil, err
		}
		ents[i].Name = s
	}
	for i := range ents {
		s, err := sr.strInto(ents[i].Type)
		if err != nil {
			return nil, err
		}
		ents[i].Type = s
	}
	return ents, nil
}

// tagged reads the nil-aware length tag back: ok=false means nil.
func (r *reader) tagged(perElem int) (n int, ok bool, err error) {
	v, err := r.uvarint()
	if err != nil || v == 0 {
		return 0, false, err
	}
	v--
	if perElem < 1 {
		perElem = 1
	}
	// Empty-but-present slices consume no payload, so only guard n > 0.
	if v > 0 && v > uint64(r.remaining()/perElem) {
		return 0, false, r.fail(fmt.Sprintf("count %d exceeds remaining input", v))
	}
	return int(v), true, nil
}

func decodeHeat(sr *reader, old *heatmap.Matrix) (*heatmap.Matrix, error) {
	m := old
	if m == nil {
		m = &heatmap.Matrix{}
	}
	entAxis := m.Entities[:0]
	featAxis := m.Features[:0]
	values, level := m.Values, m.Level
	*m = heatmap.Matrix{}

	n, ok, err := sr.tagged(1)
	if err != nil {
		return nil, err
	}
	if ok {
		// A present tag must decode to a non-nil slice even at length 0:
		// the matrix fields carry no omitempty, so nil renders as null
		// and empty as [] — the distinction is part of byte-identity.
		if entAxis == nil {
			entAxis = []heatmap.EntityAxis{}
		}
		if cap(entAxis) >= n {
			entAxis = entAxis[:n]
		} else {
			entAxis = make([]heatmap.EntityAxis, n)
		}
		for i := range entAxis {
			v, err := sr.uvarint()
			if err != nil {
				return nil, err
			}
			entAxis[i].ID = rdf.TermID(v)
		}
		for i := range entAxis {
			v, err := sr.f64()
			if err != nil {
				return nil, err
			}
			entAxis[i].Score = v
		}
		for i := range entAxis {
			s, err := sr.strInto(entAxis[i].Name)
			if err != nil {
				return nil, err
			}
			entAxis[i].Name = s
		}
		m.Entities = entAxis
	}

	n, ok, err = sr.tagged(1)
	if err != nil {
		return nil, err
	}
	if ok {
		if featAxis == nil {
			featAxis = []heatmap.FeatureAxis{}
		}
		if cap(featAxis) >= n {
			featAxis = featAxis[:n]
		} else {
			featAxis = make([]heatmap.FeatureAxis, n)
		}
		for i := range featAxis {
			v, err := sr.f64()
			if err != nil {
				return nil, err
			}
			// Keep the old Label for strInto below; zero everything else
			// (Feature is json:"-" resolver state that must not leak
			// across decodes).
			featAxis[i] = heatmap.FeatureAxis{Label: featAxis[i].Label, R: v}
		}
		for i := range featAxis {
			s, err := sr.strInto(featAxis[i].Label)
			if err != nil {
				return nil, err
			}
			featAxis[i].Label = s
		}
		m.Features = featAxis
	}

	n, ok, err = sr.tagged(1)
	if err != nil {
		return nil, err
	}
	if ok {
		if values == nil {
			values = [][]float64{}
		}
		if cap(values) >= n {
			values = values[:n]
		} else {
			values = make([][]float64, n)
		}
		for i := range values {
			cols, colsOK, err := sr.tagged(8)
			if err != nil {
				return nil, err
			}
			if !colsOK {
				values[i] = nil
				continue
			}
			row := values[i]
			if row == nil {
				row = []float64{}
			}
			if cap(row) >= cols {
				row = row[:cols]
			} else {
				row = make([]float64, cols)
			}
			for c := range row {
				v, err := sr.f64()
				if err != nil {
					return nil, err
				}
				row[c] = v
			}
			values[i] = row
		}
		m.Values = values
	}

	n, ok, err = sr.tagged(1)
	if err != nil {
		return nil, err
	}
	if ok {
		if level == nil {
			level = [][]int{}
		}
		if cap(level) >= n {
			level = level[:n]
		} else {
			level = make([][]int, n)
		}
		for i := range level {
			cols, colsOK, err := sr.tagged(1)
			if err != nil {
				return nil, err
			}
			if !colsOK {
				level[i] = nil
				continue
			}
			row := level[i]
			if row == nil {
				row = []int{}
			}
			if cap(row) >= cols {
				row = row[:cols]
			} else {
				row = make([]int, cols)
			}
			for c := range row {
				v, err := sr.varint()
				if err != nil {
					return nil, err
				}
				row[c] = int(v)
			}
			level[i] = row
		}
		m.Level = level
	}
	return m, nil
}

// ---------------------------------------------------------------------
// OpsResponse

// AppendOpsResponse encodes the POST /api/v1/ops success body.
func AppendOpsResponse(dst []byte, applied int, st *apidto.StateV1DTO) []byte {
	dst = appendHeader(dst, kindOpsResponse)
	dst = appendInt(dst, applied)
	return appendStateBody(dst, st)
}

// DecodeOpsResponse decodes an ops-response message, reusing st like
// DecodeState does.
func DecodeOpsResponse(b []byte, applied *int, st *apidto.StateV1DTO) error {
	r := &reader{b: b}
	if err := r.header(kindOpsResponse); err != nil {
		return err
	}
	v, err := r.varint()
	if err != nil {
		return err
	}
	*applied = int(v)
	return decodeStateBody(r, st)
}

// ---------------------------------------------------------------------
// Ops request + session file (shared op-list encoding)

func appendOps(dst []byte, ops []core.OpDTO) []byte {
	dst = appendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		dst = appendString(dst, op.Op)
		dst = appendString(dst, op.Keywords)
		dst = appendString(dst, op.Entity)
		dst = appendUvarint(dst, uint64(op.EntityID))
		dst = appendString(dst, op.Feature)
		dst = appendInt(dst, op.Step)
	}
	return dst
}

func (r *reader) ops() ([]core.OpDTO, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	ops := make([]core.OpDTO, n)
	for i := range ops {
		if ops[i].Op, err = r.str(); err != nil {
			return nil, err
		}
		if ops[i].Keywords, err = r.str(); err != nil {
			return nil, err
		}
		if ops[i].Entity, err = r.str(); err != nil {
			return nil, err
		}
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ops[i].EntityID = uint32(id)
		if ops[i].Feature, err = r.str(); err != nil {
			return nil, err
		}
		step, err := r.varint()
		if err != nil {
			return nil, err
		}
		ops[i].Step = int(step)
	}
	return ops, nil
}

// AppendOpsRequest encodes the POST /api/v1/ops request body: the op
// batch plus the include selection (the ?include= query parameter still
// wins, exactly as with the JSON body).
func AppendOpsRequest(dst []byte, ops []core.OpDTO, include string) []byte {
	dst = appendHeader(dst, kindOpsRequest)
	dst = appendString(dst, include)
	return appendOps(dst, ops)
}

// DecodeOpsRequest decodes an ops-request message.
func DecodeOpsRequest(b []byte) (ops []core.OpDTO, include string, err error) {
	r := &reader{b: b}
	if err := r.header(kindOpsRequest); err != nil {
		return nil, "", err
	}
	if include, err = r.str(); err != nil {
		return nil, "", err
	}
	if ops, err = r.ops(); err != nil {
		return nil, "", err
	}
	return ops, include, nil
}

// AppendSessionFile encodes a replayable op log — the wire twin of the
// {"version":2,"ops":[...]} session file the router replays into
// repaired replicas.
func AppendSessionFile(dst []byte, version int, ops []core.OpDTO) []byte {
	dst = appendHeader(dst, kindSessionFile)
	dst = appendInt(dst, version)
	return appendOps(dst, ops)
}

// DecodeSessionFile decodes a session-file message.
func DecodeSessionFile(b []byte) (version int, ops []core.OpDTO, err error) {
	r := &reader{b: b}
	if err := r.header(kindSessionFile); err != nil {
		return 0, nil, err
	}
	v, err := r.varint()
	if err != nil {
		return 0, nil, err
	}
	if ops, err = r.ops(); err != nil {
		return 0, nil, err
	}
	return int(v), ops, nil
}
