package core

import (
	"context"
	"encoding/json"
	"fmt"

	"pivote/internal/session"
)

// wrapf retags an error with context while preserving its kind.
func wrapf(err error, format string, args ...interface{}) *Error {
	return &Error{Kind: KindOf(err), Msg: fmt.Sprintf(format, args...) + ": " + err.Error(), Err: err}
}

// A session file is a replayable op log: the versioned JSON form of
// Engine.Ops() with symbolic references (IRIs, anchor:predicate labels)
// that survive graph rebuilds. Loading replays the ops through ApplyOps,
// which reconstructs the timeline — there is no separate timeline
// serialization. The format is
//
//	{"version":2,"ops":[{"op":"submit",...},...]}
//
// and any other version is rejected as KindInvalid.
type sessionFile struct {
	Version int     `json:"version"`
	Ops     []OpDTO `json:"ops"`
}

// SaveSession serializes the op log — and therefore the timeline and the
// live query — as portable JSON.
func (e *Engine) SaveSession() ([]byte, error) {
	f := sessionFile{Version: 2, Ops: make([]OpDTO, 0, len(e.log))}
	for _, op := range e.log {
		f.Ops = append(f.Ops, EncodeOp(e.Graph(), op))
	}
	return json.MarshalIndent(f, "", "  ")
}

// LoadSessionCtx replaces the session with a previously saved one by
// replaying its op log. The graph must contain every entity and
// predicate the ops reference; a failed or canceled load leaves the
// current session untouched.
func (e *Engine) LoadSessionCtx(ctx context.Context, data []byte) (*Result, error) {
	res, _, err := e.ReplaySessionCtx(ctx, data, FieldsAll)
	return res, err
}

// ReplaySessionCtx is LoadSessionCtx with field selection and an op
// index: on an op-scoped failure (decode or replay) the returned index
// identifies the offending op of the file, mirroring ApplyOps, so the
// HTTP session endpoint can serve the same error envelope as the ops
// endpoint. The index is -1 when the failure is not op-scoped (bad
// JSON, unsupported version, canceled evaluation).
func (e *Engine) ReplaySessionCtx(ctx context.Context, data []byte, fields Fields) (*Result, int, error) {
	dtos, err := DecodeSessionDTOs(data)
	if err != nil {
		return nil, -1, err
	}
	return e.ReplayDTOsCtx(ctx, dtos, fields)
}

// ReplayDTOsCtx is ReplaySessionCtx over already-decoded op DTOs — the
// entry point for the binary session-file codec, whose decoder lives
// outside this package. Error envelopes (indices, "session: op N"
// wrapping) are identical to the JSON path, so a client cannot tell
// which encoding carried the replay.
func (e *Engine) ReplayDTOsCtx(ctx context.Context, dtos []OpDTO, fields Fields) (*Result, int, error) {
	ops := make([]Op, 0, len(dtos))
	for i, d := range dtos {
		op, err := DecodeOp(e.Graph(), d)
		if err != nil {
			return nil, i, wrapf(err, "session: op %d", i)
		}
		ops = append(ops, op)
	}
	return e.replayOps(ctx, ops, fields)
}

// replayOps swaps in a fresh session, applies the ops, and restores the
// previous session wholesale on any failure.
func (e *Engine) replayOps(ctx context.Context, ops []Op, fields Fields) (*Result, int, error) {
	oldSess, oldLog := e.sess, e.log
	e.sess, e.log = session.New(), nil
	res, i, err := e.ApplyOps(ctx, ops, fields)
	if err != nil {
		e.sess, e.log = oldSess, oldLog
		if i < len(ops) {
			return nil, i, wrapf(err, "session: op %d", i)
		}
		return nil, -1, err
	}
	return res, -1, nil
}

// DecodeSessionDTOs extracts the replayable op DTOs from a session file
// without touching any graph, so a scatter-gather router can
// canonicalize an uploaded session into its own op log before fanning
// the replay out to the shards.
func DecodeSessionDTOs(data []byte) ([]OpDTO, error) {
	var f sessionFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, &Error{Kind: KindInvalid, Msg: "session: " + err.Error(), Err: err}
	}
	if f.Version != 2 {
		return nil, Errf(KindInvalid, "session: unsupported version %d", f.Version)
	}
	return f.Ops, nil
}
