package seal_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"

	seal "github.com/sealdb/seal"
)

// Example indexes the paper's running example (Figure 1) and runs its query:
// coffee-related user profiles, one of which is both spatially and textually
// similar to the query region.
func Example() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 50, MinY: 30, MaxX: 110, MaxY: 80}, Tokens: []string{"mocha", "coffee"}},
		{Region: seal.Rect{MinX: 15, MinY: 20, MaxX: 85, MaxY: 45}, Tokens: []string{"mocha", "coffee", "starbucks"}},
		{Region: seal.Rect{MinX: 5, MinY: 80, MaxX: 40, MaxY: 115}, Tokens: []string{"starbucks", "ice", "tea"}},
		{Region: seal.Rect{MinX: 85, MinY: 5, MaxX: 115, MaxY: 40}, Tokens: []string{"coffee", "starbucks", "tea"}},
		{Region: seal.Rect{MinX: 76, MinY: 2, MaxX: 88, MaxY: 46}, Tokens: []string{"mocha", "coffee", "tea"}},
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 28, MaxY: 38}, Tokens: []string{"coffee", "ice"}},
		{Region: seal.Rect{MinX: 80, MinY: 85, MaxX: 120, MaxY: 120}, Tokens: []string{"tea"}},
	}
	ix, err := seal.Build(objects)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ix.Query(context.Background(), seal.Request{
		Region: seal.Rect{MinX: 35, MinY: 10, MaxX: 75, MaxY: 70},
		Tokens: []string{"mocha", "coffee", "starbucks"},
		TauR:   0.25,
		TauT:   0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Matches {
		fmt.Printf("object %d: simR=%.2f simT=%.2f\n", m.ID, m.SimR, m.SimT)
	}
	// Output:
	// object 1: simR=0.32 simT=1.00
}

// ExampleIndex_Similarity prints every object's exact similarities to the
// query of Example (the paper's Figure 1), so its thresholds are easy to
// follow: only o2 clears both simR >= 0.25 and simT >= 0.30.
func ExampleIndex_Similarity() {
	ix, err := seal.Build(paperObjects())
	if err != nil {
		log.Fatal(err)
	}
	for id := 0; id < ix.Len(); id++ {
		simR, simT, err := ix.Similarity(paperQuery(), id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("o%d: simR=%.2f simT=%.2f\n", id+1, simR, simT)
	}
	// Output:
	// o1: simR=0.23 simT=0.58
	// o2: simR=0.32 simT=1.00
	// o3: simR=0.00 simT=0.22
	// o4: simR=0.00 simT=0.46
	// o5: simR=0.00 simT=0.46
	// o6: simR=0.00 simT=0.10
	// o7: simR=0.00 simT=0.00
}

// ExampleWithMethod compares the same search under two different filters;
// every method returns identical answers.
func ExampleWithMethod() {
	// Note: a token occurring in every object has idf weight ln(1) = 0 and
	// cannot contribute textual similarity, so the corpus below keeps every
	// token out of at least one object.
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Tokens: []string{"park", "dog"}},
		{Region: seal.Rect{MinX: 2, MinY: 2, MaxX: 12, MaxY: 12}, Tokens: []string{"park", "dog", "run"}},
		{Region: seal.Rect{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}, Tokens: []string{"park"}},
		{Region: seal.Rect{MinX: 80, MinY: 80, MaxX: 90, MaxY: 90}, Tokens: []string{"shop"}},
	}
	q := seal.Request{
		Region: seal.Rect{MinX: 1, MinY: 1, MaxX: 11, MaxY: 11},
		Tokens: []string{"park", "dog"},
		TauR:   0.3, TauT: 0.3,
	}
	for _, m := range []seal.Method{seal.MethodSeal, seal.MethodTokenFilter} {
		ix, err := seal.Build(objects, seal.WithMethod(m))
		if err != nil {
			log.Fatal(err)
		}
		res, err := ix.Query(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s found %d matches\n", ix.Stats().Method, len(res.Matches))
	}
	// Output:
	// Seal found 2 matches
	// TokenFilter found 2 matches
}

// ExampleCollectStats shows the filter/verification cost breakdown that
// mirrors the paper's experimental methodology.
func ExampleCollectStats() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, Tokens: []string{"cafe"}},
		{Region: seal.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 5}, Tokens: []string{"cafe", "wifi"}},
		{Region: seal.Rect{MinX: 50, MinY: 50, MaxX: 54, MaxY: 54}, Tokens: []string{"bar"}},
	}
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter))
	if err != nil {
		log.Fatal(err)
	}
	res, err := ix.Query(context.Background(), seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4.5, MaxY: 4.5},
		Tokens: []string{"cafe", "wifi"},
		TauR:   0.5, TauT: 0.2,
	}, seal.CollectStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matches=%d candidates=%d\n", len(res.Matches), res.Stats.Candidates)
	// Output:
	// matches=2 candidates=2
}

// ExampleIndex_Query_ranked ranks objects by a combined similarity score
// instead of filtering by fixed thresholds.
func ExampleIndex_Query_ranked() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Tokens: []string{"cafe", "wifi"}},
		{Region: seal.Rect{MinX: 2, MinY: 2, MaxX: 12, MaxY: 12}, Tokens: []string{"cafe"}},
		{Region: seal.Rect{MinX: 40, MinY: 40, MaxX: 50, MaxY: 50}, Tokens: []string{"bar"}},
	}
	ix, err := seal.Build(objects)
	if err != nil {
		log.Fatal(err)
	}
	top, err := ix.Query(context.Background(), seal.Request{
		Region: seal.Rect{MinX: 1, MinY: 1, MaxX: 11, MaxY: 11},
		Tokens: []string{"cafe", "wifi"},
		K:      2,
		Alpha:  0.5, // equal weight to spatial and textual similarity
	})
	if err != nil {
		log.Fatal(err)
	}
	for rank, m := range top.Matches {
		fmt.Printf("#%d object %d\n", rank+1, m.ID)
	}
	// Output:
	// #1 object 0
	// #2 object 1
}

// ExampleIndex_QueryBatch answers several queries concurrently.
func ExampleIndex_QueryBatch() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, Tokens: []string{"park"}},
		{Region: seal.Rect{MinX: 10, MinY: 10, MaxX: 14, MaxY: 14}, Tokens: []string{"lake"}},
		{Region: seal.Rect{MinX: 30, MinY: 30, MaxX: 44, MaxY: 44}, Tokens: []string{"park", "lake"}},
	}
	ix, err := seal.Build(objects)
	if err != nil {
		log.Fatal(err)
	}
	queries := []seal.Request{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, Tokens: []string{"park"}, TauR: 0.5, TauT: 0.5},
		{Region: seal.Rect{MinX: 10, MinY: 10, MaxX: 14, MaxY: 14}, Tokens: []string{"lake"}, TauR: 0.5, TauT: 0.5},
	}
	for i, br := range ix.QueryBatch(context.Background(), queries) {
		if br.Err != nil {
			log.Fatal(br.Err)
		}
		fmt.Printf("query %d: %d match(es)\n", i, len(br.Results.Matches))
	}
	// Output:
	// query 0: 1 match(es)
	// query 1: 1 match(es)
}

// ExampleWithShards indexes a synthetic city across four spatial shards,
// which build in parallel and answer every query by scatter-gather. A
// threshold query's stats sum the shards' work; under Limit the answer is the
// smallest-ID prefix of the full one, and a ranked request's shards share
// the running k-th-best score so a shard that cannot reach it stops early.
// Object IDs are the positions in the slice passed to Build, whatever shard
// an object lands in.
func ExampleWithShards() {
	rng := rand.New(rand.NewSource(42))
	categories := []string{"coffee", "tea", "bakery", "books", "vinyl", "ramen",
		"tacos", "climbing", "cinema", "jazz", "park", "museum"}
	// 5,000 venue profiles spread over a 1000×1000 city grid.
	objects := make([]seal.Object, 5000)
	for i := range objects {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		tokens := make([]string, 1+rng.Intn(4))
		for j := range tokens {
			tokens[j] = categories[rng.Intn(len(categories))]
		}
		objects[i] = seal.Object{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 2 + rng.Float64()*10, MaxY: y + 2 + rng.Float64()*10},
			Tokens: tokens,
		}
	}
	ix, err := seal.Build(objects,
		seal.WithMethod(seal.MethodGridFilter),
		seal.WithGranularity(256),
		seal.WithShards(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("%d objects in %d shards (%s)\n", st.Objects, st.Shards, st.Method)

	req := seal.Request{
		Region: seal.Rect{MinX: 400, MinY: 400, MaxX: 600, MaxY: 600},
		Tokens: []string{"coffee", "jazz"},
		TauR:   0.001,
		TauT:   0.2,
	}
	res, err := ix.Query(context.Background(), req, seal.CollectStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("threshold: %d matches from %d candidates\n", len(res.Matches), res.Stats.Candidates)

	first, err := ix.Query(context.Background(), req, seal.Limit(3))
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range first.Matches {
		fmt.Printf("  venue %d (simR=%.4f simT=%.2f)\n", m.ID, m.SimR, m.SimT)
	}

	top, err := ix.Query(context.Background(), seal.Request{
		Region: req.Region,
		Tokens: req.Tokens,
		K:      5,
		Alpha:  0.5,
		FloorR: 0.0001,
		FloorT: 0.01,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range top.Matches {
		fmt.Printf("  %d. venue %d score=%.3f\n", i+1, m.ID, m.Score)
	}
	// Output:
	// 5000 objects in 4 shards (GridFilter(256))
	// threshold: 32 matches from 103 candidates
	//   venue 179 (simR=0.0014 simT=0.25)
	//   venue 367 (simR=0.0011 simT=0.25)
	//   venue 455 (simR=0.0016 simT=0.33)
	//   1. venue 4508 score=0.500
	//   2. venue 3632 score=0.335
	//   3. venue 2213 score=0.334
	//   4. venue 2422 score=0.333
	//   5. venue 1504 score=0.332
}

// Example_friendRecommendation is the paper's second motivating application:
// friend recommendation in a location-aware social network. Each user is an
// ROI (active region + interests); a recommendation for user u is a
// spatio-textual similarity search with u's own profile as the query,
// returning people with overlapping hangout areas and shared interests.
func Example_friendRecommendation() {
	hobbies := []string{
		"basketball", "soccer", "chess", "salsa", "karaoke", "cycling",
		"climbing", "pottery", "poetry", "startups", "astronomy", "cooking",
		"running", "boardgames", "swimming", "theatre", "gardening", "drones",
	}
	rng := rand.New(rand.NewSource(824)) // first page of the paper

	// Users cluster around four boroughs of a 30x30 km metro area.
	boroughs := [][2]float64{{6, 6}, {22, 7}, {9, 23}, {24, 24}}
	const perBorough = 900
	users := make([]seal.Object, 0, 4*perBorough)
	for _, b := range boroughs {
		for i := 0; i < perBorough; i++ {
			cx := b[0] + rng.NormFloat64()*2.2
			cy := b[1] + rng.NormFloat64()*2.2
			w := 0.4 + rng.ExpFloat64()*1.5
			h := 0.4 + rng.ExpFloat64()*1.5
			k := 2 + rng.Intn(5)
			tags := map[string]bool{}
			for len(tags) < k {
				tags[hobbies[rng.Intn(len(hobbies))]] = true
			}
			tokens := make([]string, 0, k)
			for tag := range tags {
				tokens = append(tokens, tag)
			}
			sort.Strings(tokens) // deterministic profiles
			users = append(users, seal.Object{
				Region: seal.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2},
				Tokens: tokens,
			})
		}
	}

	ix, err := seal.Build(users)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d profiles with %s\n", ix.Len(), ix.Stats().Method)

	// Recommend friends for a few sample users: query = their own profile.
	for _, uid := range []int{17, 1234, 2750} {
		me := users[uid]
		res, err := ix.Query(context.Background(), seal.Request{
			Region: me.Region,
			Tokens: me.Tokens,
			TauR:   0.05, // hangout areas overlap meaningfully
			TauT:   0.4,  // strong interest alignment
		})
		if err != nil {
			log.Fatal(err)
		}
		// Drop the user themselves and rank by combined similarity.
		recs := slices.DeleteFunc(res.Matches, func(m seal.Match) bool { return m.ID == uid })
		sort.Slice(recs, func(i, j int) bool {
			return recs[i].SimR+recs[i].SimT > recs[j].SimR+recs[j].SimT
		})
		fmt.Printf("user %d %v:\n", uid, me.Tokens)
		for _, r := range recs[:min(5, len(recs))] {
			fmt.Printf("  meet user %d %v (simR=%.2f simT=%.2f)\n",
				r.ID, users[r.ID].Tokens, r.SimR, r.SimT)
		}
	}
	// Output:
	// indexed 3600 profiles with Seal
	// user 17 [astronomy cooking]:
	//   meet user 226 [astronomy cooking] (simR=0.07 simT=1.00)
	//   meet user 21 [astronomy cooking pottery soccer swimming] (simR=0.21 simT=0.41)
	//   meet user 764 [astronomy climbing cooking pottery swimming] (simR=0.15 simT=0.41)
	// user 1234 [basketball boardgames drones gardening karaoke soccer]:
	//   meet user 1200 [cooking drones gardening soccer] (simR=0.44 simT=0.43)
	//   meet user 1789 [astronomy boardgames drones gardening karaoke poetry] (simR=0.23 simT=0.50)
	//   meet user 1077 [basketball drones gardening swimming] (simR=0.12 simT=0.44)
	// user 2750 [astronomy climbing gardening running startups swimming]:
	//   meet user 3211 [astronomy gardening salsa swimming] (simR=0.22 simT=0.43)
	//   meet user 3319 [astronomy cycling gardening swimming] (simR=0.15 simT=0.43)
	//   meet user 3213 [astronomy gardening poetry swimming] (simR=0.13 simT=0.44)
	//   meet user 3170 [astronomy climbing swimming] (simR=0.07 simT=0.50)
	//   meet user 2897 [astronomy climbing cycling salsa startups swimming] (simR=0.07 simT=0.49)
}

// Example_socialAds is the paper's first motivating application:
// location-based social marketing. A coffee chain advertises to users whose
// profiles (active region + interest tags) overlap a store's service area and
// its product vocabulary. The audience index is sharded; answers are the same
// as one shard's.
func Example_socialAds() {
	interests := []string{
		"coffee", "espresso", "latte", "mocha", "tea", "bakery",
		"basketball", "cinema", "jazz", "sushi", "yoga", "books",
		"gaming", "hiking", "vintage", "photography",
	}
	rng := rand.New(rand.NewSource(20120827)) // VLDB 2012 opening day

	// A 40x40 km city with five neighborhoods of differing density.
	hoods := []struct {
		cx, cy, spread float64
		users          int
	}{
		{8, 8, 1.5, 1200},  // downtown
		{25, 10, 2.5, 800}, // riverside
		{15, 28, 2.0, 700}, // university
		{33, 30, 3.0, 500}, // suburbs
		{5, 33, 2.5, 300},  // old town
	}
	var users []seal.Object
	for _, h := range hoods {
		for i := 0; i < h.users; i++ {
			cx := h.cx + rng.NormFloat64()*h.spread
			cy := h.cy + rng.NormFloat64()*h.spread
			// A user's active region: their daily-movement MBR.
			w := 0.5 + rng.ExpFloat64()*2
			ht := 0.5 + rng.ExpFloat64()*2
			var tags []string
			for _, tag := range interests {
				if rng.Intn(6) == 0 {
					tags = append(tags, tag)
				}
			}
			if len(tags) == 0 {
				tags = []string{interests[rng.Intn(len(interests))]}
			}
			users = append(users, seal.Object{
				Region: seal.Rect{MinX: cx - w/2, MinY: cy - ht/2, MaxX: cx + w/2, MaxY: cy + ht/2},
				Tokens: tags,
			})
		}
	}

	ix, err := seal.Build(users, seal.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d user profiles (%s, %d shards)\n", ix.Len(), ix.Stats().Method, ix.Stats().Shards)

	// Three stores, each with a service area and a product profile.
	stores := []struct {
		name    string
		area    seal.Rect
		profile []string
	}{
		{"Downtown Roastery", seal.Rect{MinX: 5, MinY: 5, MaxX: 12, MaxY: 12}, []string{"coffee", "espresso", "mocha"}},
		{"Campus Beans", seal.Rect{MinX: 12, MinY: 25, MaxX: 18, MaxY: 31}, []string{"coffee", "latte", "bakery"}},
		{"Riverside Teas", seal.Rect{MinX: 22, MinY: 7, MaxX: 28, MaxY: 13}, []string{"tea", "bakery"}},
	}
	for _, store := range stores {
		res, err := ix.Query(context.Background(), seal.Request{
			Region: store.area,
			Tokens: store.profile,
			TauR:   0.02, // any meaningful overlap with the service area
			TauT:   0.25, // at least a quarter of the interest weight shared
		}, seal.CollectStats())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %v: %d users from %d candidates\n",
			store.name, store.profile, len(res.Matches), res.Stats.Candidates)
		for _, m := range res.Matches[:min(3, len(res.Matches))] {
			fmt.Printf("  user %d: simR=%.3f simT=%.3f\n", m.ID, m.SimR, m.SimT)
		}
	}
	// Output:
	// indexed 3500 user profiles (Seal, 4 shards)
	// Downtown Roastery [coffee espresso mocha]: 165 users from 510 candidates
	//   user 9: simR=0.087 simT=0.394
	//   user 14: simR=0.100 simT=0.503
	//   user 24: simR=0.105 simT=0.498
	// Campus Beans [coffee latte bakery]: 65 users from 263 candidates
	//   user 2002: simR=0.025 simT=0.345
	//   user 2011: simR=0.021 simT=0.390
	//   user 2028: simR=0.056 simT=0.258
	// Riverside Teas [tea bakery]: 103 users from 227 candidates
	//   user 1202: simR=0.072 simT=0.252
	//   user 1220: simR=0.048 simT=0.500
	//   user 1227: simR=0.071 simT=0.338
}

// Example_wildlifeSurvey is the paper's third motivating application:
// wildlife monitoring. Species are ROIs — habitat MBRs plus descriptive
// feature tags — and a zoologist's question like "which mammals range over
// this study area?" is a spatio-textual similarity search. It also uses a
// library extension the paper names as a variant: domain-supplied token
// weights (taxonomy outweighs behaviour).
func Example_wildlifeSurvey() {
	catalog := []struct {
		name    string
		habitat seal.Rect // simplified range MBR, km grid over a park system
		traits  []string
	}{
		{"grizzly bear", seal.Rect{MinX: 10, MinY: 40, MaxX: 60, MaxY: 90}, []string{"mammal", "omnivore", "solitary", "hibernates"}},
		{"gray wolf", seal.Rect{MinX: 20, MinY: 30, MaxX: 80, MaxY: 85}, []string{"mammal", "carnivore", "pack", "nocturnal"}},
		{"elk", seal.Rect{MinX: 15, MinY: 20, MaxX: 70, MaxY: 75}, []string{"mammal", "herbivore", "herd", "migratory"}},
		{"bison", seal.Rect{MinX: 30, MinY: 10, MaxX: 90, MaxY: 55}, []string{"mammal", "herbivore", "herd"}},
		{"bald eagle", seal.Rect{MinX: 0, MinY: 50, MaxX: 100, MaxY: 100}, []string{"bird", "carnivore", "solitary", "migratory"}},
		{"cutthroat trout", seal.Rect{MinX: 40, MinY: 60, MaxX: 75, MaxY: 95}, []string{"fish", "carnivore", "coldwater"}},
		{"pika", seal.Rect{MinX: 55, MinY: 70, MaxX: 75, MaxY: 92}, []string{"mammal", "herbivore", "alpine", "colony"}},
		{"wolverine", seal.Rect{MinX: 45, MinY: 65, MaxX: 85, MaxY: 98}, []string{"mammal", "carnivore", "solitary", "alpine"}},
	}
	// Domain weighting replaces corpus idf: taxonomy is the strongest
	// signal, diet next, behavioural traits weakest.
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
		seal.WithMethod(seal.MethodHybridHash),
		seal.WithGranularity(64),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d species (%s)\n", ix.Len(), ix.Stats().Method)

	surveys := []struct {
		title string
		query seal.Request
	}{
		{"solitary mammals ranging over the northern highlands", seal.Request{
			Region: seal.Rect{MinX: 30, MinY: 55, MaxX: 80, MaxY: 95},
			Tokens: []string{"mammal", "solitary"},
			TauR:   3.0 / 17, TauT: 0.5,
		}},
		{"herd herbivores using the southern grasslands", seal.Request{
			Region: seal.Rect{MinX: 25, MinY: 10, MaxX: 85, MaxY: 60},
			Tokens: []string{"mammal", "herbivore", "herd"},
			TauR:   1.0 / 4, TauT: 0.6,
		}},
		{"alpine specialists in the high country", seal.Request{
			Region: seal.Rect{MinX: 50, MinY: 65, MaxX: 80, MaxY: 95},
			Tokens: []string{"alpine", "mammal"},
			TauR:   3.0 / 17, TauT: 0.4,
		}},
	}
	for _, s := range surveys {
		fmt.Printf("survey: %s\n", s.title)
		res, err := ix.Query(context.Background(), s.query)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range res.Matches {
			fmt.Printf("  %-16s habitat overlap %.2f, trait similarity %.2f\n",
				catalog[m.ID].name, m.SimR, m.SimT)
		}
	}
	// Output:
	// indexed 8 species (HybridFilter(64))
	// survey: solitary mammals ranging over the northern highlands
	//   grizzly bear     habitat overlap 0.30, trait similarity 0.57
	//   wolverine        habitat overlap 0.46, trait similarity 0.57
	// survey: herd herbivores using the southern grasslands
	//   elk              habitat overlap 0.43, trait similarity 0.86
	//   bison            habitat overlap 0.77, trait similarity 1.00
	// survey: alpine specialists in the high country
	//   pika             habitat overlap 0.49, trait similarity 0.57
	//   wolverine        habitat overlap 0.68, trait similarity 0.57
}
