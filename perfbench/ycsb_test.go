package main

import (
	"math"
	"testing"
)

// The generator must draw key k with probability (k+1)^-theta / zeta(n,
// theta): check the two exact branches and the tail's share.
func TestYCSBGenZipfShares(t *testing.T) {
	g := newYCSBGen(1)
	const draws = 1_000_000
	var k0, k1, top10 int
	for i := 0; i < draws; i++ {
		k := g.key()
		if k >= uint64(ycsbCfg.Records) {
			t.Fatalf("key %d out of range", k)
		}
		switch {
		case k == 0:
			k0++
		case k == 1:
			k1++
		}
		if k < 10 {
			top10++
		}
	}
	want := func(lo, hi int) float64 {
		var p float64
		for k := lo; k < hi; k++ {
			p += math.Pow(float64(k+1), -ycsbTheta)
		}
		return p / g.zetan
	}
	for _, c := range []struct {
		name string
		got  int
		want float64
	}{
		{"key 0", k0, want(0, 1)},
		{"key 1", k1, want(1, 2)},
		{"keys 0-9", top10, want(0, 10)},
	} {
		share := float64(c.got) / draws
		if math.Abs(share-c.want) > 0.1*c.want {
			t.Errorf("%s: share %.4f, want %.4f", c.name, share, c.want)
		}
	}
}
