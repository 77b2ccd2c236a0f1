// Package server exposes a PivotE engine over HTTP: the /api/v1 JSON
// API, which carries every interaction of the paper's interface as an
// op, plus an embedded single-page web UI that speaks it. One Server
// wraps one engine (one user session) behind a sync.RWMutex: reads of
// the session run concurrently, ops that change it serialize.
package server

import (
	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/session"
)

// The v1 wire types live in internal/apidto (a leaf package shared with
// the inter-node binary codec in internal/wire) and are re-exported
// here under their historical names, so the server, the router and the
// codec all speak the exact same struct definitions.
type (
	EntityDTO   = apidto.EntityDTO
	FeatureDTO  = apidto.FeatureDTO
	TimelineDTO = apidto.TimelineDTO
)

type profileDTO struct {
	ID         uint32    `json:"id"`
	IRI        string    `json:"iri"`
	Name       string    `json:"name"`
	Abstract   string    `json:"abstract,omitempty"`
	Types      []string  `json:"types"`
	Categories []string  `json:"categories"`
	Facts      []factDTO `json:"facts"`
	Literals   []factDTO `json:"literals"`
	Incoming   []factDTO `json:"incoming"`
}

type factDTO struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

// StateV1DTO is the /api/v1 state shape. Unrequested areas are omitted
// entirely (the engine leaves them nil under field selection), so a
// ?include=entities response carries no feature, heat-map or timeline
// payload at all. Exported (with the rest of the v1 wire types) so the
// scatter-gather router can decode, merge and re-encode shard responses
// without drifting from the shapes the shard nodes serve.
type StateV1DTO = apidto.StateV1DTO

// ToStateV1DTO renders a result in the v1 wire shape against the graph
// it was evaluated on.
func ToStateV1DTO(g *kg.Graph, res *core.Result) StateV1DTO {
	dto := StateV1DTO{Description: res.Description, Heat: res.Heat, Fallback: res.Fallback}
	for _, e := range res.Entities {
		typeName := ""
		if t := g.PrimaryType(e.Entity); t != 0 {
			typeName = g.Name(t)
		}
		dto.Entities = append(dto.Entities, EntityDTO{
			ID: uint32(e.Entity), Name: e.Name, Score: e.Score, Type: typeName,
		})
	}
	for _, f := range res.Features {
		dto.Features = append(dto.Features, FeatureDTO{
			Label:      f.Label,
			AnchorID:   uint32(f.Feature.Anchor),
			R:          f.R,
			ExtentSize: f.ExtentSize,
		})
	}
	dto.Timeline = toTimelineDTO(res.Timeline)
	return dto
}

func toTimelineDTO(actions []session.Action) []TimelineDTO {
	out := make([]TimelineDTO, 0, len(actions))
	for _, a := range actions {
		out = append(out, TimelineDTO{
			Step:         a.Step,
			Kind:         a.Kind.String(),
			Label:        a.Label,
			RevisitOf:    a.RevisitOf,
			ChangesQuery: a.ChangesQuery,
		})
	}
	return out
}

func toProfileDTO(p kg.Profile) profileDTO {
	conv := func(fs []kg.Fact) []factDTO {
		out := make([]factDTO, 0, len(fs))
		for _, f := range fs {
			out = append(out, factDTO{Predicate: f.Predicate, Value: f.Value})
		}
		return out
	}
	return profileDTO{
		ID:         uint32(p.ID),
		IRI:        p.IRI,
		Name:       p.Name,
		Abstract:   p.Abstract,
		Types:      p.Types,
		Categories: p.Categories,
		Facts:      conv(p.Facts),
		Literals:   conv(p.Literals),
		Incoming:   conv(p.InvertedIn),
	}
}
