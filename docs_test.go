package t3

import (
	"bufio"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The docs-consistency checks read files only. They hold DESIGN.md's
// package inventory and fuzz table, and the Makefile's fuzz-smoke target
// (what CI's fuzz job runs), to the packages and fuzz targets that exist,
// and the command lines README.md and DESIGN.md show to the flags the
// commands register.

// modulePackages returns the module's directories that hold non-test Go
// files, as slash paths relative to the root ("." for the root), and every
// fuzz target declared in its test files, mapped to its directory. It skips
// testdata, hidden and underscore directories, and nested modules (bench/).
func modulePackages(t *testing.T) (pkgs map[string]bool, fuzz map[string]string) {
	t.Helper()
	pkgs = map[string]bool{}
	fuzz = map[string]string{}
	fuzzDecl := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasSuffix(name, "_test.go") {
			pkgs[dir] = true
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzDecl.FindAllSubmatch(src, -1) {
			fuzz[string(m[1])] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, fuzz
}

// tableRows returns the cells of the markdown table rows that follow the
// first line of path starting with header, up to the first non-row line.
func tableRows(t *testing.T, path, header string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	found := false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !found {
			found = strings.HasPrefix(line, header)
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows = append(rows, cells)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("%s: no table headed %q", path, header)
	}
	return rows
}

// backticked matches a cell that is exactly one code span.
var backticked = regexp.MustCompile("^`([^`]+)`$")

func TestDocsPackageInventory(t *testing.T) {
	pkgs, _ := modulePackages(t)
	listed := map[string]bool{}
	for _, row := range tableRows(t, "DESIGN.md", "| Package | Role |") {
		name := strings.TrimSuffix(row[0], " (repo root)")
		m := backticked.FindStringSubmatch(name)
		if m == nil {
			t.Errorf("DESIGN.md inventory: first cell %q is not one `package`", row[0])
			continue
		}
		dir := m[1]
		if dir == "t3" {
			dir = "."
		}
		if !pkgs[dir] {
			t.Errorf("DESIGN.md inventory lists %s, which is not a package directory of this module", m[1])
		}
		listed[dir] = true
	}
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		if !listed[dir] {
			t.Errorf("package %s has no row in DESIGN.md's package inventory", dir)
		}
	}
}

func TestDocsFuzzTargets(t *testing.T) {
	_, fuzz := modulePackages(t)

	smoke := fuzzSmokeTargets(t)
	for _, name := range slices.Sorted(maps.Keys(fuzz)) {
		if dir, ok := smoke[name]; !ok {
			t.Errorf("%s (%s) is missing from the Makefile's fuzz-smoke target", name, fuzz[name])
		} else if dir != fuzz[name] {
			t.Errorf("fuzz-smoke runs %s in %s; it is declared in %s", name, dir, fuzz[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(smoke)) {
		if _, ok := fuzz[name]; !ok {
			t.Errorf("fuzz-smoke runs %s, which no test file declares", name)
		}
	}

	table := map[string]bool{}
	for _, row := range tableRows(t, "DESIGN.md", "| Target | Package | Property |") {
		target := backticked.FindStringSubmatch(row[0])
		if target == nil {
			t.Errorf("DESIGN.md fuzz table: first cell %q is not one `target`", row[0])
			continue
		}
		name := target[1]
		table[name] = true
		if len(row) != 3 {
			t.Errorf("DESIGN.md fuzz table: %s's row has %d cells, want target | package | property", name, len(row))
			continue
		}
		dir, ok := fuzz[name]
		if !ok {
			t.Errorf("DESIGN.md fuzz table lists %s, which no test file declares", name)
			continue
		}
		if pkg := backticked.FindStringSubmatch(row[1]); pkg == nil || pkg[1] != dir {
			t.Errorf("DESIGN.md fuzz table: %s's package cell is %q, want `%s`", name, row[1], dir)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(fuzz)) {
		if !table[name] {
			t.Errorf("%s (%s) has no row in DESIGN.md's fuzz table", name, fuzz[name])
		}
	}
}

// fuzzSmokeTargets maps each fuzz target the Makefile's fuzz-smoke recipe
// runs to the package directory it runs it in.
func fuzzSmokeTargets(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(src), "\nfuzz-smoke:")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w*)\$\$' .* \./(\S+?)/?$`)
	targets := map[string]string{}
	for _, l := range strings.Split(recipe, "\n")[1:] {
		if !strings.HasPrefix(l, "\t") {
			break
		}
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("Makefile fuzz-smoke: cannot read %q", strings.TrimSpace(l))
			continue
		}
		targets[m[1]] = m[2]
	}
	return targets
}

// commandFlags maps each command under cmd/ to the flags its non-test
// sources register with the flag package.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`\bflag\.\w+\("([^"]+)"`)
	cmds := map[string]map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				flags[string(m[1])] = true
			}
		}
		cmds[d.Name()] = flags
	}
	return cmds
}

// docCommandLines returns the shell command lines inside the fenced code
// blocks of a markdown file, with backslash continuations joined and
// comments dropped, each keyed by the line it starts on.
func docCommandLines(t *testing.T, path string) map[int]string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	comment := regexp.MustCompile(`(^|\s)#.*$`)
	lines := map[int]string{}
	inBlock, start, joined := false, 0, ""
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock, joined = !inBlock, ""
			continue
		}
		if !inBlock {
			continue
		}
		if joined == "" {
			start = i + 1
		}
		line = comment.ReplaceAllString(line, "")
		if cont, ok := strings.CutSuffix(strings.TrimRight(line, " \t"), `\`); ok {
			joined += cont + " "
			continue
		}
		lines[start] = joined + line
		joined = ""
	}
	return lines
}

// TestDocsCommandFlags holds every command line README.md and DESIGN.md show
// for one of the module's commands (go run ./cmd/X or a built X) to the
// flags X registers, so the docs cannot name a flag that was deleted or
// renamed: Go's flag package refuses an unknown flag, and the command does
// not start.
func TestDocsCommandFlags(t *testing.T) {
	cmds := commandFlags(t)
	separator := regexp.MustCompile(`\|\||&&|[|;&]`)
	flagArg := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		lines := docCommandLines(t, doc)
		for _, line := range slices.Sorted(maps.Keys(lines)) {
			for _, segment := range separator.Split(lines[line], -1) {
				args := strings.Fields(segment)
				if len(args) >= 3 && args[0] == "go" && args[1] == "run" {
					args = args[2:]
				}
				if len(args) == 0 {
					continue
				}
				flags, ok := cmds[filepath.Base(args[0])]
				if !ok {
					continue
				}
				checked++
				for _, a := range args[1:] {
					if m := flagArg.FindStringSubmatch(a); m != nil && !flags[m[1]] {
						t.Errorf("%s:%d: %s has no flag -%s: %s", doc, line, filepath.Base(args[0]), m[1], strings.Join(args, " "))
					}
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("found %d command lines in README.md and DESIGN.md code blocks", checked)
	}
}
