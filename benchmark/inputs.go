package main

import (
	"math/rand"
	"strconv"
	"strings"

	autoncs "repro"
)

// Every input derives from the --seed flag alone; the program under test
// only ever sees the generated networks.

// design is one named input network.
type design struct {
	name string
	net  *autoncs.Network
}

// testbenches returns the paper's three Hopfield testbenches tb1–tb3
// trained from seed: draw 0 of a workload's design set.
func testbenches(seed int64) []design {
	var out []design
	for _, tb := range autoncs.Testbenches() {
		out = append(out, design{name: "tb" + strconv.Itoa(tb.ID), net: autoncs.BuildTestbench(tb, seed)})
	}
	return out
}

// paperSeed is the seed the repository's Table 1 trains its testbenches
// from.
const paperSeed = 1

// drawSeed is the testbench seed of draw k of a run seeded seed; draw 0 is
// the run seed itself, so seed 1 reproduces the repository's Table 1.
func drawSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// subRand returns the random stream of one component (an edit chain, a
// serve session, the batch schedule) of a run seeded seed.
func subRand(seed int64, stream, index int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)*104729 + int64(index)))
}

// Random-stream ids, so no two components of a run share a stream.
const (
	streamEditChain = 1 + iota
	streamSession
	streamBatch
)

// localizedEdit returns a copy of net with about edits connections
// changed inside two disjoint random windows of n/8 neurons: half of them
// removed from existing connections in one window, half added among
// absent pairs of the other. This is the editing shape the delta path is
// built for — a designer rewiring one region of the network at a time.
func localizedEdit(net *autoncs.Network, edits int, rng *rand.Rand) *autoncs.Network {
	n := net.N()
	out := autoncs.NewNetwork(n)
	for _, e := range net.Edges() {
		out.Set(e.From, e.To)
	}
	span := n / 8
	if span < 4 {
		span = 4
	}
	loA := rng.Intn(n - 2*span + 1)
	loB := loA + span + rng.Intn(n-loA-2*span+1)
	if rng.Intn(2) == 0 {
		loA, loB = loB, loA
	}
	toggle := func(lo, want int, present bool) {
		for tries := 0; want > 0 && tries < 64*span*span; tries++ {
			i, j := lo+rng.Intn(span), lo+rng.Intn(span)
			if i != j && out.Has(i, j) == present {
				if present {
					out.Clear(i, j)
				} else {
					out.Set(i, j)
				}
				want--
			}
		}
	}
	toggle(loA, edits/2, true)
	toggle(loB, edits-edits/2, false)
	return out
}

// netText renders a network in the autoncs-net text format the service
// accepts.
func netText(net *autoncs.Network) string {
	var b strings.Builder
	if err := net.Write(&b); err != nil {
		panic(err) // a strings.Builder never fails
	}
	return b.String()
}
