// Command simtrace runs one seeded deterministic simulation (see
// internal/simtest) and prints its transcript digest. The same seed always
// prints the same digest — and with -v, the same transcript byte for byte —
// so a fault schedule that exposed a bug can be replayed exactly:
//
//	simtrace -seed 42            # digest + summary
//	simtrace -seed 42 -v         # plus the fault script and full transcript
//	simtrace -seed 42 -calls 32  # a longer run
package main

import (
	"flag"
	"fmt"
	"os"

	"promises/internal/simtest"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "script seed; same seed, same transcript")
		servers = flag.Int("servers", 2, "server guardians")
		clients = flag.Int("clients", 2, "client guardians")
		calls   = flag.Int("calls", 8, "calls per client")
		verbose = flag.Bool("v", false, "print the fault script and full transcript")
	)
	flag.Parse()

	r, err := simtest.Run(simtest.Options{
		Seed: *seed, Servers: *servers, Clients: *clients, Calls: *calls,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simtrace:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Println("# script")
		for _, line := range r.Script {
			fmt.Println(line)
		}
		fmt.Println("# transcript")
		fmt.Print(r.Transcript)
	}
	fmt.Printf("seed=%d events+outcomes=%d virtual=%v digest=%s\n",
		*seed, countLines(r.Transcript), r.VirtualElapsed, r.Digest)
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}
