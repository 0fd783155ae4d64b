// Command experiments regenerates every table and figure of the
// paper's evaluation (§IV) on the synthetic world and prints them in
// the paper's layout, so a run can be read side by side with the
// paper's numbers.
//
// Usage:
//
//	go run ./cmd/experiments              # default scale (~minutes)
//	go run ./cmd/experiments -scale tiny  # quick smoke run
//	go run ./cmd/experiments -only tableI,fig7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ncexplorer/internal/harness"
)

func main() {
	scaleFlag := flag.String("scale", "default", "world scale: tiny or default")
	only := flag.String("only", "", "comma-separated experiment filter (dataset,tableI,tableII,tableIII,fig4,fig5,fig6,fig7,fig8,reach,gptdirect)")
	flag.Parse()

	var scale harness.Scale
	switch *scaleFlag {
	case "default":
		scale = harness.Default
	case "tiny":
		scale = harness.Tiny
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[strings.ToLower(name)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[strings.ToLower(name)] }

	start := time.Now()
	fmt.Printf("building %s world...\n", scale)
	w := harness.GetWorld(scale)
	fmt.Printf("world ready in %.1fs: %d KG nodes, %d instance edges, %d articles\n\n",
		time.Since(start).Seconds(), w.G.NumNodes(), w.G.NumInstanceEdges(), w.Corpus.Len())

	section := func(title string) {
		fmt.Printf("═══ %s ═══\n", title)
	}

	if enabled("dataset") {
		section("E0 · Dataset statistics (§IV)")
		fmt.Println(harness.FormatDatasetStats(w.DatasetStats()))
	}

	var topics []harness.TableITopic
	if enabled("tableI") || enabled("tableII") {
		topics = w.TableI()
	}
	if enabled("tableI") {
		section("E1 · Table I — NDCG@K without / with GPT re-rank")
		fmt.Println(harness.FormatTableI(topics))
	}
	if enabled("tableII") {
		section("E2 · Table II — impact of the GPT re-rank")
		fmt.Println(harness.FormatTableII(harness.TableII(topics)))
	}
	if enabled("tableIII") {
		section("E3 · Table III — analyst productivity study (n=10)")
		fmt.Println(harness.FormatTableIII(w.TableIII(10)))
	}
	if enabled("fig4") {
		section("E4 · Fig. 4 — indexing time per article")
		fmt.Println(harness.FormatFig4(w.Fig4(100)))
	}
	if enabled("fig5") {
		section("E5 · Fig. 5 — retrieval time vs query concepts")
		fmt.Println(harness.FormatFig5(w.Fig5(100)))
	}
	if enabled("fig6") {
		section("E6 · Fig. 6 — context relevance effectiveness")
		fmt.Println(harness.FormatFig6(w.Fig6(100)))
	}
	if enabled("fig7") {
		section("E7 · Fig. 7 — RW estimator convergence")
		fmt.Println(harness.FormatFig7(w.Fig7(20, 5)))
	}
	if enabled("fig8") {
		section("E8 · Fig. 8 — drill-down component ablation")
		fmt.Println(harness.FormatFig8(w.Fig8()))
	}
	if enabled("reach") {
		section("E9 · Reachability guidance cost: on-demand τ-hop balls (§IV-A2)")
		fmt.Println(harness.FormatReachBuild(w.ReachIndexBuild(500)))
	}
	if enabled("gptdirect") {
		section("E10 · Extension — GPT as a direct ranker (§IV-A1 future work)")
		fmt.Println(harness.FormatGPTDirect(w.GPTDirect()))
	}
	fmt.Printf("total wall time %.1fs\n", time.Since(start).Seconds())
}
