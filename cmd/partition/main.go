// Command partition maps a DML network onto simulation engine nodes using
// one of the paper's load-balance approaches and reports the partition's
// quality: achieved MLL, edge cut, estimated load balance, and the E =
// Es·Ec evaluation. The node→engine assignment can be written out for
// cmd/massf.
//
// Example:
//
//	partition -net net.dml -approach HPROF -engines 90 -profile prof.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"massf/internal/core"
	"massf/internal/dml"
	"massf/internal/profile"
)

func main() {
	var (
		netPath  = flag.String("net", "", "input DML network (required)")
		name     = flag.String("approach", "HPROF", "mapping approach: RANDOM, TOP, TOP2, PROF, PROF2, HTOP, HPROF")
		engines  = flag.Int("engines", 16, "simulation engine node count N")
		profPath = flag.String("profile", "", "traffic profile file (required for PROF/PROF2/HPROF)")
		seed     = flag.Int64("seed", 1, "partitioner seed")
		out      = flag.String("o", "", "write the node→engine assignment to this file")
	)
	flag.Parse()
	if *netPath == "" {
		fatal(fmt.Errorf("-net is required"))
	}
	a, err := core.ParseApproach(*name)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*netPath)
	if err != nil {
		fatal(err)
	}
	net, err := dml.ReadNetwork(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	var prof *profile.Profile
	if *profPath != "" {
		pf, err := os.Open(*profPath)
		if err != nil {
			fatal(err)
		}
		prof, err = profile.Read(pf)
		pf.Close()
		if err != nil {
			fatal(err)
		}
	}
	m, err := core.Map(net, a, core.Config{Engines: *engines, Seed: *seed}, prof)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("approach        %v\n", m.Approach)
	fmt.Printf("engines         %d\n", *engines)
	fmt.Printf("achieved MLL    %v\n", m.MLL)
	fmt.Printf("edge cut        %d\n", m.EdgeCut)
	if m.Approach.Hierarchical() && *engines > 1 {
		if m.Candidates == 0 {
			// The first threshold already left fewer supernodes than engines.
			fmt.Println("chosen Tmll     none: the sweep fell back to flat partitioning")
		} else {
			fmt.Printf("chosen Tmll     %v (of %d candidates)\n", m.Tmll, m.Candidates)
		}
	}
	fmt.Printf("E = Es·Ec       %.3f = %.3f · %.3f\n", m.E, m.Es, m.Ec)
	var min, max int
	var lo, hi int64 = -1, -1
	for p, w := range m.EstLoad {
		if lo < 0 || w < lo {
			lo, min = w, p
		}
		if w > hi {
			hi, max = w, p
		}
	}
	fmt.Printf("est load        min %d (engine %d), max %d (engine %d)\n", lo, min, hi, max)

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		bw := bufio.NewWriter(of)
		for node, part := range m.Part {
			fmt.Fprintf(bw, "%d %d\n", node, part)
		}
		if err := bw.Flush(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partition:", err)
	os.Exit(1)
}
