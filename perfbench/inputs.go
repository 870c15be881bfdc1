package main

import (
	"fmt"
	"math/rand"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/workload"
)

// refScale is the reference-data scale: 0.02 of the paper's sizes,
// which makes SafetyRatings 10,000 rows and the tweets' country space
// 10,000 keys.
const refScale = 0.02

// tweetInfo is what the correctness checks need to know about one
// generated tweet.
type tweetInfo struct {
	country string
	retweet int64
}

// tweets is a slice of generated tweets with ids [base, base+len).
type tweets struct {
	base int64
	raw  [][]byte
	info []tweetInfo
}

// genTweets generates n tweets with ids starting at base and records
// the fields the checks compare against.
func genTweets(g *workload.Generator, base int64, n int) (tweets, error) {
	t := tweets{base: base, raw: g.Tweets(base, n), info: make([]tweetInfo, n)}
	for i, raw := range t.raw {
		v, err := adm.ParseJSON(raw)
		if err != nil {
			return t, fmt.Errorf("generated tweet %d: %w", base+int64(i), err)
		}
		rt, _ := v.Field("retweet_count").AsInt()
		t.info[i] = tweetInfo{country: v.Field("country").StringVal(), retweet: rt}
	}
	return t, nil
}

// zipfPicker draws indexes in [0, n) with a Zipf skew over a seeded
// permutation, so the hot keys are not simply the smallest ids.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(rng *rand.Rand, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }

// safetyRatings returns the generator's SafetyRatings rows as JSON,
// plus the rating each country starts with.
func safetyRatings(g *workload.Generator) ([][]byte, map[string]string, error) {
	ds, err := lsm.NewDataset("SafetyRatings", nil, "country_code", 1, lsm.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	if err := g.FillSafetyRatings(ds); err != nil {
		return nil, nil, err
	}
	var rows [][]byte
	initial := make(map[string]string)
	ds.ScanAll(func(_, rec adm.Value) bool {
		rows = append(rows, adm.SerializeJSON(rec))
		initial[rec.Field("country_code").StringVal()] = rec.Field("safety_rating").StringVal()
		return true
	})
	return rows, initial, nil
}

// jsonArray joins JSON documents into one JSON array.
func jsonArray(docs [][]byte) []byte {
	n := 2
	for _, d := range docs {
		n += len(d) + 1
	}
	out := make([]byte, 0, n)
	out = append(out, '[')
	for i, d := range docs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, d...)
	}
	return append(out, ']')
}
