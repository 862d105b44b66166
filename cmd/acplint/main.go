// Command acplint runs the repository's custom analyzer suite
// (internal/lint) over Go packages: determinism of the seeded packages
// and atomic-access consistency.
//
// Standalone, over package patterns:
//
//	go run ./cmd/acplint ./...
//	go run ./cmd/acplint -json ./...
//
// With -json, findings are printed to stdout as a JSON array of
// {file, line, column, analyzer, message} records for CI annotators.
//
// As a vet tool, speaking the unitchecker vet.cfg protocol:
//
//	go build -o "$(go env GOPATH)/bin/acplint" ./cmd/acplint
//	go vet -vettool=$(which acplint) ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 internal error.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

const (
	exitClean       = 0
	exitDiagnostics = 1
	exitError       = 2
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches between the three invocation modes: -V=full version
// fingerprinting (the go command probes vet tools this way), a single
// *.cfg argument (go vet -vettool unitchecker mode), and standalone
// package patterns resolved relative to dir.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" || a == "-V" {
			return printVersion(stdout, stderr)
		}
		if a == "-flags" || a == "--flags" {
			// The go command asks which analyzer flags the tool supports
			// before its first real invocation; acplint exposes none.
			fmt.Fprintln(stdout, "[]")
			return exitClean
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVet(args[0], stderr)
	}
	asJSON := false
	patterns := make([]string, 0, len(args))
	for _, a := range args {
		if a == "-json" || a == "--json" {
			asJSON = true
			continue
		}
		patterns = append(patterns, a)
	}
	return runStandalone(dir, patterns, asJSON, stdout, stderr)
}

// printVersion mirrors x/tools' unitchecker: the go command fingerprints
// a vet tool by hashing its own executable, so the version line must be
// stable for a given binary.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	fmt.Fprintf(stdout, "%s version devel buildID=%x\n", filepath.Base(exe), h.Sum(nil))
	return exitClean
}

// vetConfig is the subset of the go command's vet.cfg the tool needs.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVet analyzes one package as directed by a vet.cfg handed over by
// `go vet -vettool`. The go command compiles export data for every
// dependency before invoking the tool, so type-checking needs no network
// and no module cache walk.
func runVet(cfgFile string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "acplint: parsing %s: %v\n", cfgFile, err)
		return exitError
	}
	// The go command requires the facts file to exist after a successful
	// run. acplint keeps no cross-package facts; an empty file suffices.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
	}
	if cfg.VetxOnly {
		return exitClean
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	fset := token.NewFileSet()
	pkg, err := lint.Check(fset, cfg.ImportPath, cfg.Dir, cfg.GoFiles, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return exitClean
		}
		fmt.Fprintln(stderr, err)
		return exitError
	}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, lint.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return exitDiagnostics
	}
	return exitClean
}

// jsonDiagnostic is one -json output record: a stable machine-readable
// shape for CI annotators and editor integrations.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func runStandalone(dir string, patterns []string, asJSON bool, stdout, stderr io.Writer) int {
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	if len(pkgs) == 0 {
		if asJSON {
			fmt.Fprintln(stdout, "[]")
		}
		return exitClean
	}
	base, _ := filepath.Abs(dir)
	records := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		name := pos.Filename
		if base != "" {
			if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		records = append(records, jsonDiagnostic{
			File: name, Line: pos.Line, Column: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
	} else {
		for _, r := range records {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", r.File, r.Line, r.Column, r.Analyzer, r.Message)
		}
	}
	if len(diags) > 0 {
		return exitDiagnostics
	}
	return exitClean
}
