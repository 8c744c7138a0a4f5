// Command wildlife demonstrates the paper's third motivating application:
// wildlife monitoring. Species are ROIs — habitat MBRs plus descriptive
// feature tags — and a zoologist's question like "which mammals range over
// this study area?" is a spatio-textual similarity search.
//
// The example also exercises two library extensions: domain-supplied token
// weights (taxonomic features outweigh behavioral ones) and Dice spatial
// similarity, both mentioned as variants in the paper.
//
// Run it with:
//
//	go run ./examples/wildlife
package main

import (
	"context"
	"fmt"
	"log"

	seal "github.com/sealdb/seal"
)

type species struct {
	name    string
	habitat seal.Rect // simplified range MBR, km grid over a park system
	traits  []string
}

func main() {
	catalog := []species{
		{"grizzly bear", seal.Rect{MinX: 10, MinY: 40, MaxX: 60, MaxY: 90}, []string{"mammal", "omnivore", "solitary", "hibernates"}},
		{"gray wolf", seal.Rect{MinX: 20, MinY: 30, MaxX: 80, MaxY: 85}, []string{"mammal", "carnivore", "pack", "nocturnal"}},
		{"elk", seal.Rect{MinX: 15, MinY: 20, MaxX: 70, MaxY: 75}, []string{"mammal", "herbivore", "herd", "migratory"}},
		{"bison", seal.Rect{MinX: 30, MinY: 10, MaxX: 90, MaxY: 55}, []string{"mammal", "herbivore", "herd"}},
		{"bald eagle", seal.Rect{MinX: 0, MinY: 50, MaxX: 100, MaxY: 100}, []string{"bird", "carnivore", "solitary", "migratory"}},
		{"cutthroat trout", seal.Rect{MinX: 40, MinY: 60, MaxX: 75, MaxY: 95}, []string{"fish", "carnivore", "coldwater"}},
		{"pika", seal.Rect{MinX: 55, MinY: 70, MaxX: 75, MaxY: 92}, []string{"mammal", "herbivore", "alpine", "colony"}},
		{"wolverine", seal.Rect{MinX: 45, MinY: 65, MaxX: 85, MaxY: 98}, []string{"mammal", "carnivore", "solitary", "alpine"}},
	}

	// Domain weighting: taxonomy is the strongest signal, diet next,
	// behavioral traits weakest — replacing corpus idf entirely.
	weights := map[string]float64{
		"mammal": 3, "bird": 3, "fish": 3,
		"carnivore": 2, "herbivore": 2, "omnivore": 2,
		"solitary": 1, "pack": 1, "herd": 1, "colony": 1,
		"hibernates": 1, "nocturnal": 1, "migratory": 1,
		"coldwater": 1, "alpine": 1,
	}

	objects := make([]seal.Object, len(catalog))
	for i, s := range catalog {
		objects[i] = seal.Object{Region: s.habitat, Tokens: s.traits}
	}
	ix, err := seal.Build(objects,
		seal.WithTokenWeights(weights),
		seal.WithSpatialSimilarity(seal.SpatialDice),
		seal.WithMethod(seal.MethodHybridHash),
		seal.WithGranularity(64),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d species (%s)\n\n", ix.Len(), ix.Stats().Method)

	surveys := []struct {
		title string
		query seal.Request
	}{
		{
			"solitary mammals ranging over the northern highlands",
			seal.Request{
				Region: seal.Rect{MinX: 30, MinY: 55, MaxX: 80, MaxY: 95},
				Tokens: []string{"mammal", "solitary"},
				TauR:   0.3, TauT: 0.5,
			},
		},
		{
			"herd herbivores using the southern grasslands",
			seal.Request{
				Region: seal.Rect{MinX: 25, MinY: 10, MaxX: 85, MaxY: 60},
				Tokens: []string{"mammal", "herbivore", "herd"},
				TauR:   0.4, TauT: 0.6,
			},
		},
		{
			"alpine specialists in the high country",
			seal.Request{
				Region: seal.Rect{MinX: 50, MinY: 65, MaxX: 80, MaxY: 95},
				Tokens: []string{"alpine", "mammal"},
				TauR:   0.3, TauT: 0.4,
			},
		},
	}

	for _, s := range surveys {
		fmt.Printf("survey: %s\n", s.title)
		res, err := ix.Query(context.Background(), s.query)
		if err != nil {
			log.Fatal(err)
		}
		matches := res.Matches
		if len(matches) == 0 {
			fmt.Println("  nothing in range")
		}
		for _, m := range matches {
			fmt.Printf("  %-16s habitat overlap (Dice) %.2f, trait similarity %.2f\n",
				catalog[m.ID].name, m.SimR, m.SimT)
		}
		fmt.Println()
	}
}
