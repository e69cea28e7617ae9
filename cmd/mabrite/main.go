// Command mabrite generates network topologies as DML configuration files:
// single-AS power-law networks (-flat) or Internet-like multi-AS networks
// with automatically configured BGP routing policies.
//
// Examples:
//
//	mabrite -as 100 -routers-per-as 200 -hosts 10000 -o net.dml
//	mabrite -flat -routers 20000 -hosts 10000 -o flat.dml
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"massf/internal/dml"
	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/topology"
)

func main() {
	var (
		flat         = flag.Bool("flat", false, "generate a single-AS (flat OSPF) network")
		routers      = flag.Int("routers", 2000, "router count (flat mode)")
		ases         = flag.Int("as", 20, "AS count (multi-AS mode)")
		routersPerAS = flag.Int("routers-per-as", 100, "routers per AS (multi-AS mode)")
		hosts        = flag.Int("hosts", 1000, "host count")
		seed         = flag.Int64("seed", 0, "generator seed (0 = derive from the clock)")
		out          = flag.String("o", "", "output DML file (default stdout)")
		stats        = flag.Bool("stats", false, "print topology statistics to stderr")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	// The effective seed makes any generated topology reproducible:
	// re-run with -seed <value>.
	fmt.Fprintf(os.Stderr, "mabrite: seed %d\n", *seed)

	var net *model.Network
	var err error
	if *flat {
		net, err = topology.GenerateFlat(topology.FlatOptions{Routers: *routers, Hosts: *hosts, Seed: *seed})
	} else {
		net, err = mabrite.Generate(mabrite.Options{
			ASes: *ases, RoutersPerAS: *routersPerAS, Hosts: *hosts, Seed: *seed,
		})
	}
	if err != nil {
		fatal(err)
	}
	if err := net.Validate(); err != nil {
		fatal(fmt.Errorf("generated network failed validation: %w", err))
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "nodes=%d routers=%d hosts=%d links=%d ases=%d\n",
			len(net.Nodes), net.NumRouters(), net.NumHosts(), len(net.Links), len(net.ASes))
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := dml.WriteNetwork(w, net); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mabrite:", err)
	os.Exit(1)
}
