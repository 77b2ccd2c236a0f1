// Film exploration: the paper's §3.1 scenario. Express "find films
// starring Tom Hanks" by pinning the semantic feature
// Tom_Hanks:starring, then narrow with a second condition, then switch to
// investigation by example — and read the heat map that explains the
// recommendations.
//
//	go run ./examples/film_exploration
package main

import (
	"context"
	"fmt"
	"log"

	"pivote"
)

func main() {
	g := pivote.GenerateDemo(1000, 42)
	eng := pivote.New(g, pivote.Options{TopEntities: 10, TopFeatures: 8})
	ctx := context.Background()
	apply := func(op pivote.Op) *pivote.Result {
		res, err := eng.Apply(ctx, op)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// "Find films starring Tom Hanks" — a semantic-feature condition.
	th, err := pivote.ParseFeature(g, "Tom_Hanks:starring")
	if err != nil {
		log.Fatal(err)
	}
	res := apply(pivote.OpAddFeature(th))
	fmt.Println("films starring Tom Hanks:")
	for _, e := range res.Entities {
		fmt.Printf("  %-28s %.5f\n", e.Name, e.Score)
	}

	// Narrow: also directed by Robert Zemeckis (conjunctive conditions).
	rz, err := pivote.ParseFeature(g, "Robert_Zemeckis:director")
	if err != nil {
		log.Fatal(err)
	}
	res = apply(pivote.OpAddFeature(rz))
	fmt.Println("\n... and directed by Robert Zemeckis:")
	for _, e := range res.Entities {
		fmt.Printf("  %-28s %.5f\n", e.Name, e.Score)
	}

	// Switch to investigation: drop the conditions, use Forrest Gump as
	// an example ("find films similar to Forrest Gump", §3.1).
	apply(pivote.OpRemoveFeature(rz))
	apply(pivote.OpRemoveFeature(th))
	res = apply(pivote.OpAddSeed(g.EntityByName("Forrest_Gump")))
	fmt.Println("\nfilms similar to Forrest Gump, with explanation heat map:")
	fmt.Print(res.Heat.ASCII())

	// The explanation of one cell, as in the paper: why does Apollo 13
	// correlate with Tom_Hanks:starring?
	for i, f := range res.Heat.Features {
		for j, e := range res.Heat.Entities {
			if f.Label == "Tom_Hanks:starring" && e.Name == "Apollo 13" {
				fmt.Printf("\nexplanation: %s\n", res.Heat.CellExplanation(eng.Features(), i, j))
			}
		}
	}

	// An entity profile (the presentation area, Fig. 3-d).
	fmt.Println()
	profile, err := eng.LookupCtx(ctx, g.EntityByName("Forrest_Gump"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(profile.Render())
}
