package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"massf/internal/cluster"
	"massf/internal/mabrite"
	"massf/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// multiASNet is the small multi-AS input of the mapping golden: ten ASes
// whose inter-AS links are the long ones the T_mll sweep keeps.
func multiASNet(t testing.TB) *model.Network {
	t.Helper()
	net, err := mabrite.Generate(mabrite.Options{ASes: 10, RoutersPerAS: 40, Hosts: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// partDigest is FNV-64a over the partition's little-endian int32s.
func partDigest(part []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range part {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMappingGolden pins every mapping the sweep and the flat partitioner
// produce on two nets, two engine counts and the four approaches the paper
// compares: the partition's digest, its cut, MLL, chosen T_mll, candidate
// count, the exact bits of E/Es/Ec and every Sweep entry. Any change to
// graph contraction, partitioning or the sweep that moves one bit of a
// mapping fails here.
func TestMappingGolden(t *testing.T) {
	nets := []struct {
		name string
		net  *model.Network
	}{
		{"flat800", flatNet(t, 800, 11)},
		{"multias10x40", multiASNet(t)},
	}
	bits := math.Float64bits
	var got bytes.Buffer
	for _, n := range nets {
		prof := fakeProfile(n.net, 7)
		for _, k := range []int{4, 16} {
			for _, a := range []Approach{TOP2, PROF, HTOP, HPROF} {
				m, err := Map(n.net, a, Config{Engines: k, Sync: cluster.DefaultTeraGrid(), Seed: 5, KeepSweep: true}, prof)
				if err != nil {
					t.Fatalf("%s k=%d %v: %v", n.name, k, a, err)
				}
				fmt.Fprintf(&got, "%s k=%d %v part=%016x cut=%d mll=%d tmll=%d candidates=%d E=%016x Es=%016x Ec=%016x\n",
					n.name, k, a, partDigest(m.Part), m.EdgeCut, m.MLL, m.Tmll, m.Candidates,
					bits(m.E), bits(m.Es), bits(m.Ec))
				for _, c := range m.Sweep {
					fmt.Fprintf(&got, "  tmll=%d mll=%d supernodes=%d E=%016x Es=%016x Ec=%016x\n",
						c.Tmll, c.MLL, c.Supernodes, bits(c.E), bits(c.Es), bits(c.Ec))
				}
			}
		}
	}
	path := filepath.Join("testdata", "mapping.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("mapping moved at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("mapping golden has %d lines, this build printed %d", len(wl), len(gl))
	}
}
