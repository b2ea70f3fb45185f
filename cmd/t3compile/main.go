// Command t3compile emits Go source code for a trained T3 model — the
// repository's analogue of the lleaves LLVM compiler (§2.6 of the paper).
// Each decision node becomes one comparison and one branch, each leaf a
// return; the Go compiler turns the output into native machine code when the
// enclosing package is built. Nothing in the repository serves from it: a
// loaded model is compiled once by treec.Pack, and every prediction runs on
// that layout.
//
// Usage:
//
//	t3compile -in models/t3_default.json > model_gen.go
//	t3compile -in models/t3_default.json -pkg main -out DIR/model_gen.go
package main

import (
	"flag"
	"log"
	"os"
	"path/filepath"

	"t3/internal/gbdt"
	"t3/internal/treec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("t3compile: ")
	var (
		in  = flag.String("in", "models/t3_default.json", "trained model (JSON)")
		out = flag.String("out", "", "generated Go file (default: standard output)")
		pkg = flag.String("pkg", "compiled", "package name for the generated file")
	)
	flag.Parse()

	model, err := gbdt.Load(*in)
	if err != nil {
		log.Fatal(err)
	}
	w, dest := os.Stdout, "standard output"
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			log.Fatal(err)
		}
		if w, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
		dest = *out
	}
	if err := treec.GenGo(model, *pkg, w); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("compiled %d trees (%d nodes) to %s", len(model.Trees), model.NumNodes(), dest)
}
