// Package repl implements the terminal front-end of PivotE: a
// line-oriented command loop over the core engine that mirrors every
// interaction of the web interface. It exists as a package (rather than
// living inside cmd/pivote-repl) so the whole surface is unit-testable
// with piped input.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"pivote/internal/bgp"
	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
)

const helpText = `commands:
  search <keywords>      submit a keyword query
  seed <entity>          add an example entity (local name, e.g. Forrest_Gump)
  unseed <entity>        remove an example entity
  feature <A:p>          pin a semantic feature condition (e.g. Tom_Hanks:starring)
  unfeature <A:p>        unpin a condition
  pivot <entity>         switch the search domain through an entity
  profile <entity>       show an entity profile (the presentation area)
  show                   re-render the current interface state
  heat                   render the correlation heat map
  path                   render the exploratory path
  timeline               list the query history
  revisit <step>         restore a historical query
  typeview <Type>        show the coupled-type view of a type (e.g. Film)
  sparql <query>         run a basic-graph-pattern query, e.g.
                         sparql SELECT ?f WHERE { ?f starring Tom_Hanks }
  save <path>            save the session (timeline + query) as JSON
  load <path>            restore a saved session
  help                   this text
  quit                   exit`

// Run drives the engine with commands from in, writing renderings to
// out. Every mutating command goes through the op protocol
// (Engine.Apply); the repl is just a line-oriented op encoder. It
// returns when in is exhausted or the quit command arrives.
func Run(g *kg.Graph, eng *core.Engine, in io.Reader, out io.Writer) error {
	ctx := context.Background()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 4096), 1024*1024)
	fmt.Fprintln(out, "PivotE explorer — type 'help' for commands")
	var last *core.Result
	render := func(res *core.Result) {
		last = res
		fmt.Fprint(out, res.RenderASCII())
	}
	apply := func(op core.Op) {
		res, err := eng.Apply(ctx, op)
		if err != nil {
			fmt.Fprintf(out, "%v\n", err)
			return
		}
		render(res)
	}
	for {
		fmt.Fprint(out, "pivote> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, arg := line, ""
		if i := strings.IndexByte(line, ' '); i >= 0 {
			cmd, arg = line[:i], strings.TrimSpace(line[i+1:])
		}
		switch cmd {
		case "quit", "exit":
			fmt.Fprintln(out, "bye")
			return nil
		case "help":
			fmt.Fprintln(out, helpText)
		case "search":
			apply(core.OpSubmit(arg))
		case "seed", "unseed", "pivot", "profile":
			id := g.EntityByName(arg)
			if id == rdf.NoTerm {
				fmt.Fprintf(out, "unknown entity %q\n", arg)
				continue
			}
			switch cmd {
			case "seed":
				apply(core.OpAddSeed(id))
			case "unseed":
				apply(core.OpRemoveSeed(id))
			case "pivot":
				apply(core.OpPivot(id))
			case "profile":
				p, err := eng.LookupCtx(ctx, id)
				if err != nil {
					fmt.Fprintf(out, "%v\n", err)
					continue
				}
				fmt.Fprint(out, p.Render())
			}
		case "feature", "unfeature":
			f, err := semfeat.Parse(g, arg)
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			if cmd == "feature" {
				apply(core.OpAddFeature(f))
			} else {
				apply(core.OpRemoveFeature(f))
			}
		case "show":
			res, err := eng.EvaluateCtx(ctx, core.FieldsAll)
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			render(res)
		case "heat":
			if last == nil || last.Heat == nil || len(last.Heat.Features) == 0 {
				fmt.Fprintln(out, "no heat map yet — run a query first")
				continue
			}
			fmt.Fprint(out, last.Heat.ASCII())
		case "path":
			fmt.Fprint(out, eng.Session().PathASCII())
		case "timeline":
			for _, a := range eng.Session().Timeline() {
				fmt.Fprintf(out, "[%d] %s\n", a.Step, a.Label)
			}
		case "revisit":
			step, err := strconv.Atoi(arg)
			if err != nil {
				fmt.Fprintf(out, "revisit needs a step number, got %q\n", arg)
				continue
			}
			apply(core.OpRevisit(step))
		case "typeview":
			t := g.Dict().LookupIRI("http://pivote.dev/ontology/class/" + arg)
			if t == rdf.NoTerm {
				t = g.Dict().LookupIRI(kg.ResourceIRI(arg))
			}
			if t == rdf.NoTerm {
				t = g.Dict().LookupIRI(arg)
			}
			if t == rdf.NoTerm || len(g.TypeMembers(t)) == 0 {
				fmt.Fprintf(out, "unknown type %q\n", arg)
				continue
			}
			fmt.Fprint(out, g.RenderTypeView(t, 500, 15))
		case "sparql":
			q, err := bgp.Parse(g, arg)
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			rows, err := bgp.Execute(g.Store(), q)
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			printBindings(out, g, q, rows)
		case "save":
			raw, err := eng.SaveSession()
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			if err := os.WriteFile(arg, raw, 0o644); err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			fmt.Fprintf(out, "saved %d actions to %s\n", eng.Session().Len(), arg)
		case "load":
			raw, err := os.ReadFile(arg)
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			res, err := eng.LoadSessionCtx(ctx, raw)
			if err != nil {
				fmt.Fprintf(out, "%v\n", err)
				continue
			}
			fmt.Fprintf(out, "restored %d actions\n", eng.Session().Len())
			render(res)
		default:
			fmt.Fprintf(out, "unknown command %q — try 'help'\n", cmd)
		}
	}
}

// printBindings renders BGP results as an aligned table of decoded terms.
func printBindings(out io.Writer, g *kg.Graph, q bgp.Query, rows []bgp.Binding) {
	vars := q.Select
	if len(vars) == 0 && len(rows) > 0 {
		for v := range rows[0] {
			vars = append(vars, v)
		}
		sort.Strings(vars)
	}
	for _, v := range vars {
		fmt.Fprintf(out, "?%-24s", v)
	}
	fmt.Fprintln(out)
	for _, row := range rows {
		for _, v := range vars {
			fmt.Fprintf(out, "%-25s", g.Name(row[v]))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "(%d rows)\n", len(rows))
}
