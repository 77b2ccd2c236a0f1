package eval

import (
	"context"
	"fmt"
	"strings"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/synth"
	"pivote/internal/viz"
)

// Env is a generated graph shared by the experiment drivers so that every
// experiment at one scale reuses the same data and indexes.
type Env struct {
	Result *synth.Result
	Graph  *kg.Graph
}

// NewEnv generates the standard synthetic KG at the given film count.
func NewEnv(scale int, seed int64) *Env {
	cfg := synth.Scaled(scale)
	cfg.Seed = seed
	r := synth.Generate(cfg)
	return &Env{Result: r, Graph: r.Graph}
}

// anchor returns the paper's example entity, which the generator embeds
// at every scale.
func (e *Env) anchor(name string) rdf.TermID {
	id := e.Graph.EntityByName(name)
	if id == rdf.NoTerm {
		panic("eval: anchor entity " + name + " missing from synthetic graph")
	}
	return id
}

// RunT1 regenerates Table 1: the five-field representation of
// Forrest_Gump.
func RunT1(env *Env) Artifact {
	ff := search.FiveFieldsOf(env.Graph, env.anchor("Forrest_Gump"))
	return Artifact{
		ID:    "T1",
		Title: "Multi-fielded entity representation for Forrest_Gump",
		Text:  ff.Render("Forrest_Gump"),
	}
}

// RunF1a regenerates Figure 1-a: the annotated neighbourhood of
// Forrest_Gump as DOT, plus the semantic features it exposes.
func RunF1a(env *Env) Artifact {
	g := env.Graph
	gump := env.anchor("Forrest_Gump")
	nb := g.NeighborhoodOf(gump, 2, 24)
	var b strings.Builder
	b.WriteString("Figure 1-a: 2-hop neighbourhood of Forrest_Gump (see forrest_gump.dot)\n")
	fmt.Fprintf(&b, "nodes=%d edges=%d\n", len(nb.Nodes), len(nb.Edges))
	return Artifact{
		ID:    "F1a",
		Title: "Example knowledge-graph fragment around Forrest_Gump",
		Text:  b.String(),
		Files: map[string]string{"forrest_gump.dot": g.DOT(nb)},
	}
}

// RunF1b regenerates Figure 1-b: the view of entity types — the global
// type histogram and the coupled-type view of Film.
func RunF1b(env *Env) Artifact {
	g := env.Graph
	var b strings.Builder
	b.WriteString("Figure 1-b: view of entity types\n\nType histogram:\n")
	hist := g.TypeHistogram()
	maxCount := 0
	for _, h := range hist {
		if h.Count > maxCount {
			maxCount = h.Count
		}
	}
	for _, h := range hist {
		fmt.Fprintf(&b, "  %-12s %6d %s\n", h.Name, h.Count, viz.Bar(h.Count, maxCount, 40))
	}
	b.WriteString("\nCoupled types of Film (search directions):\n")
	film := g.Dict().LookupIRI("http://pivote.dev/ontology/class/Film")
	b.WriteString(g.RenderTypeView(film, 500, 12))
	return Artifact{
		ID:    "F1b",
		Title: "View of entity types and their couplings",
		Text:  b.String(),
	}
}

// RunF2 regenerates Figure 2: the system architecture diagram.
func RunF2() Artifact {
	return Artifact{
		ID:    "F2",
		Title: "PivotE system architecture",
		Text:  "Figure 2: architecture of the PivotE system (see architecture.dot)\n",
		Files: map[string]string{"architecture.dot": core.ArchitectureDOT()},
	}
}

// RunF3 regenerates Figure 3: the full interface state after the paper's
// "forrest gump" query followed by an investigation on the entity — all
// five areas, with the heat map additionally rendered as SVG and JSON.
func RunF3(env *Env) Artifact {
	eng := core.New(env.Graph, core.Options{TopEntities: 12, TopFeatures: 10})
	res, _, err := eng.ApplyOps(context.Background(), []core.Op{
		core.OpSubmit("forrest gump"),
		core.OpAddSeed(env.anchor("Forrest_Gump")),
	}, core.FieldsAll)
	if err != nil {
		panic("eval: F3 ops failed: " + err.Error())
	}
	files := map[string]string{}
	if res.Heat != nil {
		files["heatmap.svg"] = res.Heat.SVG()
		if raw, err := res.Heat.JSON(); err == nil {
			files["heatmap.json"] = string(raw)
		}
	}
	profile, err := eng.LookupCtx(context.Background(), env.anchor("Forrest_Gump"))
	if err != nil {
		panic("eval: F3 lookup failed: " + err.Error())
	}
	text := "Figure 3: PivotE workspace for query \"forrest gump\" + entity Forrest_Gump\n\n" +
		res.RenderASCII() + "\nEntity presentation area (d):\n" + profile.Render()
	return Artifact{
		ID:    "F3",
		Title: "User interface of PivotE (all areas)",
		Text:  text,
		Files: files,
	}
}

// RunF4 regenerates Figure 4: the exploratory path of the §3 demo
// scenario (query → lookup → investigate → pivot to Actor → pivot to
// Director-domain film → revisit).
func RunF4(env *Env) Artifact {
	eng := core.New(env.Graph, core.Options{TopEntities: 10, TopFeatures: 8})
	// The §3 demo scenario as one replayable op log (FieldNone: only the
	// exploratory path is needed, so no query is ever evaluated).
	if _, _, err := eng.ApplyOps(context.Background(), []core.Op{
		core.OpSubmit("forrest gump"),
		core.OpLookup(env.anchor("Forrest_Gump")),
		core.OpAddSeed(env.anchor("Forrest_Gump")),
		core.OpPivot(env.anchor("Tom_Hanks")),
		core.OpPivot(env.anchor("Robert_Zemeckis")),
		core.OpRevisit(1),
	}, core.FieldNone); err != nil {
		panic("eval: F4 ops failed: " + err.Error())
	}
	s := eng.Session()
	return Artifact{
		ID:    "F4",
		Title: "An example of the exploratory path",
		Text:  "Figure 4: exploratory search path\n\n" + s.PathASCII(),
		Files: map[string]string{
			"path.dot": s.PathDOT(),
			"path.svg": s.PathSVG(),
		},
	}
}
