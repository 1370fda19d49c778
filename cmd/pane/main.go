// Command pane computes PANE embeddings for an attributed graph given as
// edge / attribute / (optional) label files and writes the result as a
// single model bundle — config + embeddings + graph in one file that
// paneserve can load, update dynamically, and snapshot (see
// internal/store).
//
// Usage:
//
//	pane -edges g.edges -attrs g.attrs [-labels g.labels] \
//	     [-k 128] [-alpha 0.5] [-eps 0.015] [-threads N] [-seed 1] \
//	     [-out model.pane] [-text embeddings]
//
// -text additionally dumps the matrices as whitespace-separated text for
// ad-hoc inspection: <prefix>.xf, <prefix>.xb (one node per line, k/2
// values each) and <prefix>.y (one attribute per line).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"pane/internal/core"
	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pane: ")
	var (
		edgePath   = flag.String("edges", "", "edge list file: 'src dst' per line (required)")
		attrPath   = flag.String("attrs", "", "attribute file: 'node attr [weight]' per line (required)")
		labelPath  = flag.String("labels", "", "label file: 'node label' per line (optional)")
		outPath    = flag.String("out", "model.pane", "output model bundle path")
		textPrefix = flag.String("text", "", "also write text matrices under this prefix (optional)")
		k          = flag.Int("k", 128, "space budget (even)")
		alpha      = flag.Float64("alpha", 0.5, "random walk stopping probability")
		eps        = flag.Float64("eps", 0.015, "error threshold")
		threads    = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads (1 = single-thread algorithm); defaults to GOMAXPROCS")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *edgePath == "" || *attrPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := graph.LoadFiles(*edgePath, *attrPath, *labelPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	st := g.Stats()
	log.Printf("loaded graph: n=%d m=%d d=%d |ER|=%d", st.Nodes, st.Edges, st.Attrs, st.AttrEntries)

	cfg := core.Config{K: *k, Alpha: *alpha, Eps: *eps, Threads: *threads, Seed: *seed}
	start := time.Now()
	emb, timing, err := core.Train(g, cfg)
	if err != nil {
		log.Fatalf("embedding: %v", err)
	}
	log.Printf("embedded in %.2fs (t=%d iterations): %v", time.Since(start).Seconds(), cfg.Iterations(), timing)

	bundle := &store.Bundle{
		ModelVersion: 1,
		Cfg:          cfg,
		Xf:           emb.Xf,
		Xb:           emb.Xb,
		Y:            emb.Y,
		Adj:          g.Adj,
		Attr:         g.Attr,
		Labels:       g.Labels,
	}
	if err := store.SaveBundleFile(*outPath, bundle); err != nil {
		log.Fatalf("writing bundle: %v", err)
	}
	log.Printf("wrote %s (version 1)", *outPath)

	if *textPrefix != "" {
		for _, out := range []struct {
			suffix string
			m      *mat.Dense
		}{
			{".xf", emb.Xf.Dense()}, {".xb", emb.Xb.Dense()}, {".y", emb.Y},
		} {
			if err := writeMatrix(*textPrefix+out.suffix, out.m); err != nil {
				log.Fatalf("writing %s: %v", *textPrefix+out.suffix, err)
			}
		}
		log.Printf("wrote %s.xf, %s.xb, %s.y", *textPrefix, *textPrefix, *textPrefix)
	}
}

func writeMatrix(path string, m *mat.Dense) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if j > 0 {
				if err := w.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%g", v); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return w.Flush()
}
