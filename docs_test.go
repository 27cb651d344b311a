package ugpu_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose backticked references TestDocsCiteExistingNames checks.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	inlineCode  = regexp.MustCompile("`([^`]+)`")
	// A test, benchmark or fuzz function name, optionally in the Name* or
	// Name[Suffix] shorthand for a family of functions.
	testName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*|\[\w+\])?`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	makeCmd  = regexp.MustCompile(`(?m)^make ([\w-]+)`)
	makeRule = regexp.MustCompile(`(?m)^([\w-]+):`)
	// A path-like span is slash-separated words (globs allowed); a trailing
	// ".Symbol" (internal/experiments.Figure10) names a package member.
	pathLike = regexp.MustCompile(`^[\w.-]+(?:/[\w.*-]+)*$`)
	symbol   = regexp.MustCompile(`\.[A-Z]\w*$`)
	fileExt  = regexp.MustCompile(`^[A-Za-z][\w.-]*\.(?:go|md|json|txt|sh|ya?ml|mod)$`)
	// A flag a command defines (fs.Int("cycles", ...)), a flag a span
	// passes (-name, --name or -name=value), and a fenced line that runs a
	// command, optionally after a "$ " prompt, up to its comment.
	flagDef = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)\(\s*"([\w-]+)"`)
	flagUse = regexp.MustCompile(`(?:^|\s)(--?([A-Za-z][\w-]*))`)
	cmdLine = regexp.MustCompile(`(?m)^(?:\$ )?(?:go|bash) [^#\n]*`)
)

// The command mains whose flags the documents may cite, besides the go
// command's own flags below.
var flagMains = []string{"cmd/*/main.go", "bench/main.go"}

// goToolFlags are go command flags the documents cite (go test -run, go -C);
// no main.go of the repo defines them.
var goToolFlags = map[string]bool{
	"C": true, "o": true, "run": true, "bench": true, "benchtime": true,
	"benchmem": true, "count": true, "cover": true, "race": true,
	"short": true, "timeout": true, "v": true,
}

// TestDocsCiteExistingNames fails when README.md, DESIGN.md or
// EXPERIMENTS.md cites, in backticks, something the repo does not have: a
// Test*, Benchmark* or Fuzz* function (also as Name* or Name[Suffix]), a repo
// path (a span whose first segment is a top-level entry, or a bare file name
// with a source or data extension), a make target, or a command-line flag
// that no cmd/*/main.go or bench/main.go defines and the go command does not
// take. Flags are read from inline spans and from fenced lines that run go
// or bash. Deleting a function, file, target or flag without updating the
// documents that cite it fails here.
func TestDocsCiteExistingNames(t *testing.T) {
	funcs := map[string]bool{}
	base := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		base[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	flags := map[string]bool{}
	for _, pattern := range flagMains {
		mains, err := filepath.Glob(pattern)
		if err != nil || len(mains) == 0 {
			t.Fatalf("no command main matches %s", pattern)
		}
		for _, path := range mains {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
				flags[m[1]] = true
			}
		}
	}

	hasFunc := func(name, form string) bool {
		switch {
		case form == "*":
			for f := range funcs {
				if strings.HasPrefix(f, name) {
					return true
				}
			}
			return false
		case form != "":
			return funcs[name] && funcs[name+strings.Trim(form, "[]")]
		}
		return funcs[name]
	}

	reported := map[string]bool{}
	report := func(doc, msg string) {
		if !reported[doc+msg] {
			reported[doc+msg] = true
			t.Errorf("%s cites %s", doc, msg)
		}
	}
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		// Fenced blocks are cited code: their function names and make
		// commands are checked, their shell paths are not.
		var spans, flagSpans []string
		for _, m := range fencedBlock.FindAllStringSubmatch(text, -1) {
			spans = append(spans, m[1])
			flagSpans = append(flagSpans, cmdLine.FindAllString(m[1], -1)...)
		}
		inline := inlineCode.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1)
		for _, m := range inline {
			spans = append(spans, m[1])
			flagSpans = append(flagSpans, m[1])
		}
		for _, span := range spans {
			for _, m := range testName.FindAllStringSubmatch(span, -1) {
				if !hasFunc(m[1], m[2]) {
					report(doc, m[0]+", which no _test.go file defines")
				}
			}
			for _, m := range makeCmd.FindAllStringSubmatch(strings.TrimSpace(span), -1) {
				if !targets[m[1]] {
					report(doc, "`"+m[0]+"`, which the Makefile does not define")
				}
			}
		}
		for _, m := range inline {
			if ref := repoPath(m[1]); ref != "" && !pathExists(ref, base) {
				report(doc, "`"+m[1]+"`, which is not in the repo")
			}
		}
		for _, span := range flagSpans {
			for _, m := range flagUse.FindAllStringSubmatch(span, -1) {
				if !flags[m[2]] && !goToolFlags[m[2]] {
					report(doc, "`"+m[1]+"`, a flag no command main defines")
				}
			}
		}
	}
}

// repoPath returns the repo path an inline code span names, or "" when the
// span does not look like one: a slash path must start at a top-level entry
// (so `testing/quick` or `den/num` are not paths), and a bare name must carry
// a file extension.
func repoPath(span string) string {
	p := strings.TrimSuffix(symbol.ReplaceAllString(strings.TrimSpace(span), ""), "/")
	if !pathLike.MatchString(p) {
		return ""
	}
	if first, _, ok := strings.Cut(p, "/"); ok {
		if _, err := os.Stat(first); err != nil {
			return ""
		}
		return p
	}
	if fileExt.MatchString(p) {
		return p
	}
	return ""
}

// pathExists reports whether p (a glob) matches a repo path, or, for a bare
// file name, whether some file in the repo has that name.
func pathExists(p string, base map[string]bool) bool {
	if !strings.Contains(p, "/") && base[p] {
		return true
	}
	matches, err := filepath.Glob(p)
	return err == nil && len(matches) > 0
}
