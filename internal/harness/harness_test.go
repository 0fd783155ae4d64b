package harness

import (
	"strings"
	"testing"
)

func tinyWorld(t testing.TB) *World {
	t.Helper()
	return GetWorld(Tiny)
}

func TestDatasetStats(t *testing.T) {
	w := tinyWorld(t)
	rows := w.DatasetStats()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	ratios := map[string]float64{}
	for _, r := range rows {
		if r.Articles == 0 || r.TotalMentions == 0 {
			t.Errorf("%s row empty: %+v", r.Source, r)
		}
		if r.LinkedRatio <= 0 || r.LinkedRatio >= 1 {
			t.Errorf("%s linked ratio = %v", r.Source, r.LinkedRatio)
		}
		ratios[r.Source] = r.LinkedRatio
	}
	// The paper's shape: reuters lowest linked ratio.
	if ratios["reuters"] >= ratios["seekingalpha"] || ratios["reuters"] >= ratios["nyt"] {
		t.Errorf("reuters should link least: %v", ratios)
	}
	if s := FormatDatasetStats(rows); !strings.Contains(s, "reuters") {
		t.Error("format output missing source")
	}
}

func TestTableIShape(t *testing.T) {
	w := tinyWorld(t)
	topics := w.TableI()
	if len(topics) != 6 {
		t.Fatalf("topics = %d, want 6", len(topics))
	}
	// Collect per-method averages (without GPT).
	avg := map[string]float64{}
	for _, tt := range topics {
		if len(tt.Rows) != 5 {
			t.Fatalf("topic %q has %d rows", tt.Topic, len(tt.Rows))
		}
		for _, row := range tt.Rows {
			for _, k := range KCuts {
				c := row.ByK[k]
				if c.Without < 0 || c.Without > 1 || c.With < 0 || c.With > 1 {
					t.Errorf("NDCG out of range: %+v", c)
				}
			}
			avg[row.Method] += row.ByK[10].Without
		}
	}
	for m := range avg {
		avg[m] /= float64(len(topics))
	}
	// Paper shape: NCExplorer best or second best overall; Lucene and
	// NewsLink trail the semantic methods.
	if avg[MethodNCExplorer] < avg["Lucene"] {
		t.Errorf("NCExplorer (%.3f) should beat Lucene (%.3f) at NDCG@10", avg[MethodNCExplorer], avg["Lucene"])
	}
	if avg[MethodNCExplorer] < avg["NewsLink"] {
		t.Errorf("NCExplorer (%.3f) should beat NewsLink (%.3f)", avg[MethodNCExplorer], avg["NewsLink"])
	}
	better := 0
	for _, m := range MethodOrder[:4] {
		if avg[MethodNCExplorer] >= avg[m] {
			better++
		}
	}
	if better < 3 {
		t.Errorf("NCExplorer should be near the top: averages %v", avg)
	}
	if s := FormatTableI(topics); !strings.Contains(s, "NCExplorer") {
		t.Error("format output incomplete")
	}
}

func TestTableIIDirections(t *testing.T) {
	w := tinyWorld(t)
	topics := w.TableI()
	rows := TableII(topics)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMethod := map[string]map[int]float64{}
	for _, r := range rows {
		byMethod[r.Method] = r.ByK
	}
	// The paper's key observations: GPT re-ranking *hurts* Lucene,
	// strongly helps the methods whose initial rankings are weakest
	// (BERT, NewsLink), and barely moves NCExplorer — whose rankings
	// are already close to what the judge would produce. When a
	// method's unre-ranked @1 is near-ideal the sign of its small delta
	// is noise, so NCExplorer is held to a magnitude bound rather than
	// a sign.
	if byMethod["Lucene"][1] >= 0 {
		t.Errorf("GPT re-rank should hurt Lucene at NDCG@1: %+v", byMethod["Lucene"])
	}
	for _, m := range []string{"BERT", "NewsLink"} {
		if byMethod[m][1] <= 0 {
			t.Errorf("GPT re-rank should help %s at NDCG@1: %+v", m, byMethod[m])
		}
		// Weak initial rankings gain far more than NCExplorer's.
		if byMethod[m][1] < byMethod[MethodNCExplorer][1] {
			t.Errorf("%s should gain more from re-ranking than NCExplorer", m)
		}
	}
	// At this corpus size a single topic recovering from a weak top-1
	// can dominate the six-topic @1 average, so the bound is loose; the
	// @10 impact is the stable indicator of "already well ranked".
	if nce := byMethod[MethodNCExplorer][1]; nce < -20 || nce > 150 {
		t.Errorf("NCExplorer re-rank impact out of range: %+v", byMethod[MethodNCExplorer])
	}
	if nce10 := byMethod[MethodNCExplorer][10]; nce10 < -8 || nce10 > 12 {
		t.Errorf("NCExplorer @10 impact should be near zero: %+v", byMethod[MethodNCExplorer])
	}
	if s := FormatTableII(rows); !strings.Contains(s, "%") {
		t.Error("format output incomplete")
	}
}

func TestTableIIIShape(t *testing.T) {
	w := tinyWorld(t)
	rows := w.TableIII(10)
	if len(rows) < 4 {
		t.Fatalf("tasks = %d, want ≥4", len(rows))
	}
	significant := 0
	for _, r := range rows {
		if r.ExplorerMean <= r.KeywordMean {
			t.Errorf("task %q: explorer %.2f ≤ keyword %.2f", r.Name, r.ExplorerMean, r.KeywordMean)
		}
		if r.P < 0.05 {
			significant++
		}
	}
	if significant < len(rows)*2/3 {
		t.Errorf("only %d/%d tasks significant", significant, len(rows))
	}
	if s := FormatTableIII(rows); !strings.Contains(s, "p (H1)") {
		t.Error("format output incomplete")
	}
}

func TestFig4Shape(t *testing.T) {
	w := tinyWorld(t)
	// Wall-clock measurements are noisy when the test binary shares the
	// machine with parallel packages or benchmarks; retry, and compare
	// the across-source aggregate rather than each source.
	var rows []Fig4Row
	ordered := false
	for attempt := 0; attempt < 5 && !ordered; attempt++ {
		rows = w.Fig4(30)
		var lucene, nce float64
		for _, r := range rows {
			lucene += r.PerMethodSec["Lucene"]
			nce += r.PerMethodSec[MethodNCExplorer]
		}
		// Lucene must be the cheapest indexer overall; NCExplorer costs
		// more (linking + relevance scoring), as in Fig. 4.
		ordered = lucene < nce
	}
	if !ordered {
		t.Error("Lucene repeatedly measured no cheaper than NCExplorer in aggregate")
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LinkShare+r.ScoreShare < 0.99 || r.LinkShare+r.ScoreShare > 1.01 {
			t.Errorf("%s: shares do not sum to 1: %v + %v", r.Source, r.LinkShare, r.ScoreShare)
		}
	}
	if s := FormatFig4(rows); !strings.Contains(s, "link/score") {
		t.Error("format output incomplete")
	}
}

func TestFig5Shape(t *testing.T) {
	w := tinyWorld(t)
	points := w.Fig5(20)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if p.Concepts != i+1 {
			t.Errorf("point %d has %d concepts", i, p.Concepts)
		}
		for _, m := range MethodOrder {
			if p.PerMethodSec[m] < 0 {
				t.Errorf("negative latency for %s", m)
			}
		}
	}
	if s := FormatFig5(points); !strings.Contains(s, "#Concepts") {
		t.Error("format output incomplete")
	}
}

func TestFig6Shape(t *testing.T) {
	w := tinyWorld(t)
	rows := w.Fig6(40)
	if len(rows) != 9 { // 3 sources × 3 τ
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	zeroByTau := map[int][]float64{}
	for _, r := range rows {
		// The headline effect: relevant concepts out-score negatives.
		if r.RelevantMean <= r.NegativeMean {
			t.Errorf("%s τ=%d: relevant %.4f ≤ negative %.4f",
				r.Source, r.Tau, r.RelevantMean, r.NegativeMean)
		}
		zeroByTau[r.Tau] = append(zeroByTau[r.Tau], r.ZeroFrac)
	}
	// More hops ⇒ fewer zero scores (τ=1 has the most zeros, as in the
	// paper's 55% vs 22.4%).
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(zeroByTau[1]) <= mean(zeroByTau[2]) {
		t.Errorf("zero fraction should drop from τ=1 (%.2f) to τ=2 (%.2f)",
			mean(zeroByTau[1]), mean(zeroByTau[2]))
	}
	if s := FormatFig6(rows); !strings.Contains(s, "zero-frac") {
		t.Error("format output incomplete")
	}
}

func TestFig7Shape(t *testing.T) {
	w := tinyWorld(t)
	points := w.Fig7(8, 4)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Error must broadly decrease with samples, and guided walks must
	// converge faster at high sample counts.
	type key struct {
		src    string
		guided bool
	}
	first := map[key]float64{}
	last := map[key]float64{}
	for _, p := range points {
		k := key{p.Source, p.Guided}
		if p.Samples == Fig7SampleCounts[0] {
			first[k] = p.AvgErr
		}
		if p.Samples == Fig7SampleCounts[len(Fig7SampleCounts)-1] {
			last[k] = p.AvgErr
		}
	}
	for k, f := range first {
		l, ok := last[k]
		if !ok {
			continue
		}
		if k.guided && l > f {
			t.Errorf("%v: guided error grew from %.3f (n=1) to %.3f (n=50)", k, f, l)
		}
		// Unguided walks may simply never reach the target within τ
		// (the paper's dotted lines stay high); only exclude blow-ups.
		if !k.guided && l > f*1.15+0.05 {
			t.Errorf("%v: unguided error blew up from %.3f to %.3f", k, f, l)
		}
	}
	// Guided converges at least as well as unguided at n=50, per source.
	for src := range map[string]bool{"seekingalpha": true, "nyt": true, "reuters": true} {
		g, okg := last[key{src, true}]
		u, oku := last[key{src, false}]
		if okg && oku && g > u*1.5 {
			t.Errorf("%s: guided error %.3f ≫ unguided %.3f at n=50", src, g, u)
		}
	}
	if s := FormatFig7(points); !strings.Contains(s, "w/ index") {
		t.Error("format output incomplete")
	}
}

func TestFig8Shape(t *testing.T) {
	w := tinyWorld(t)
	rows := w.Fig8()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.C < 1 || r.CSD > 3 {
			t.Errorf("%s ratings out of scale: %+v", r.Domain, r)
		}
		// The paper's finding: adding components does not hurt, and the
		// full ranker (C+S+D) is the best of the three. Per-domain
		// samples are small, so allow rating noise there; the pooled
		// "overall" row must order strictly.
		const eps = 0.08
		if r.CSD < r.C-eps {
			t.Errorf("%s: C+S+D (%.3f) below C (%.3f)", r.Domain, r.CSD, r.C)
		}
		if r.CSD < r.CS-eps {
			t.Errorf("%s: C+S+D (%.3f) below C+S (%.3f)", r.Domain, r.CSD, r.CS)
		}
		if r.Domain == "overall" && (r.CSD < r.C || r.CSD < r.CS) {
			t.Errorf("overall: C+S+D (%.3f) must top C (%.3f) and C+S (%.3f)", r.CSD, r.C, r.CS)
		}
	}
	if s := FormatFig8(rows); !strings.Contains(s, "overall") {
		t.Error("format output incomplete")
	}
}

func TestReachIndexBuild(t *testing.T) {
	w := tinyWorld(t)
	res := w.ReachIndexBuild(50)
	if res.Targets != 50 {
		t.Fatalf("targets = %d", res.Targets)
	}
	if res.Bytes <= 0 || res.Seconds < 0 || res.MeanBall < 1 {
		t.Fatalf("bad result: %+v", res)
	}
	if !strings.Contains(FormatReachBuild(res), "MB") {
		t.Error("format output incomplete")
	}
}

func TestWorldCaching(t *testing.T) {
	a := GetWorld(Tiny)
	b := GetWorld(Tiny)
	if a != b {
		t.Fatal("world not cached")
	}
}

func TestTableIDeterminism(t *testing.T) {
	w := tinyWorld(t)
	a := w.TableI()
	b := w.TableI()
	for i := range a {
		for j := range a[i].Rows {
			for _, k := range KCuts {
				if a[i].Rows[j].ByK[k] != b[i].Rows[j].ByK[k] {
					t.Fatalf("TableI not deterministic at topic %d row %d k %d", i, j, k)
				}
			}
		}
	}
}

func TestGPTDirectExtension(t *testing.T) {
	w := tinyWorld(t)
	rows := w.GPTDirect()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DirectN10 < 0 || r.DirectN10 > 1 || r.RerankN10 < 0 || r.RerankN10 > 1 {
			t.Errorf("%s: NDCG out of range: %+v", r.Topic, r)
		}
		if r.JudgeCalls != w.Corpus.Len() {
			t.Errorf("%s: judge calls = %d, want corpus size %d", r.Topic, r.JudgeCalls, w.Corpus.Len())
		}
	}
	if s := FormatGPTDirect(rows); !strings.Contains(s, "judge calls") {
		t.Error("format output incomplete")
	}
}
