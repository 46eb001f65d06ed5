// Command mipbench regenerates every experiment of EXPERIMENTS.md: one
// table/figure per experiment id, mapped to the paper's figures and claims
// (the paper's evaluation is descriptive, so each experiment reproduces a
// figure's content or a quantitative claim's shape — see DESIGN.md).
//
// Usage:
//
//	mipbench                              # run everything
//	mipbench -exp e5                      # one experiment
//	mipbench -list                        # list experiments
//	mipbench -bench-out BENCH_engine.json # perf suite → JSON report
//	mipbench -compare BENCH_engine.json   # perf suite → deltas vs baseline
//	                                      # (exit 1 above -threshold %)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one registered benchmark.
type experiment struct {
	id    string
	title string
	run   func()
}

var experiments []experiment

func register(id, title string, run func()) {
	experiments = append(experiments, experiment{id, title, run})
}

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e14) or all")
	list := flag.Bool("list", false, "list experiments")
	benchOut := flag.String("bench-out", "", "run the perf benchmark suite and write the JSON report to this file")
	compare := flag.String("compare", "", "run the perf benchmark suite and print ns/op and allocs/op deltas vs this baseline JSON report")
	threshold := flag.Float64("threshold", 25, "with -compare: exit non-zero when any benchmark regresses more than this percentage")
	flag.Parse()

	if *benchOut != "" || *compare != "" {
		runPerfSuite(*benchOut, *compare, *threshold)
		return
	}

	sort.Slice(experiments, func(i, j int) bool {
		a, b := experiments[i].id, experiments[j].id
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-5s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		fmt.Printf("\n================================================================\n")
		fmt.Printf("%s — %s\n", strings.ToUpper(e.id), e.title)
		fmt.Printf("================================================================\n")
		e.run()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}

// header prints a section line.
func header(format string, args ...any) {
	fmt.Printf("\n-- "+format+" --\n", args...)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
