package sage_test

// Documentation checks, run by the CI docs job. TestDocLinks: every
// relative markdown link in README.md and docs/*.md must resolve to a
// file or directory in the repository, so the docs cannot silently rot as
// files move. External (scheme-ful) links and intra-page anchors are out
// of scope — the check must not depend on the network.
// TestServeFlagsDocumented: the flag tables in docs/HTTP_API.md list
// exactly the flags sage-serve defines.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches inline markdown links and captures the target. Images
// share the syntax (with a leading '!') and are checked the same way.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocLinks(t *testing.T) {
	pages := []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	pages = append(pages, docs...)
	if len(docs) == 0 {
		t.Fatal("no docs/*.md found; the documentation moved without updating this check")
	}

	checked := 0
	for _, page := range pages {
		body, err := os.ReadFile(page)
		if err != nil {
			t.Fatalf("%s: %v", page, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			case strings.HasPrefix(target, "#"):
				continue // intra-page anchor
			}
			target = strings.SplitN(target, "#", 2)[0] // drop cross-page anchors
			resolved := filepath.Join(filepath.Dir(page), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not resolve (%v)", page, m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found at all; the matcher is likely broken")
	}
}

// flagDefiners are the flag package functions sage-serve defines its
// flags with; the first argument of each is the flag's name.
var flagDefiners = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Bool": true, "Duration": true, "Func": true,
}

// flagCell matches a flag table row's first cell: a backticked flag.
var flagCell = regexp.MustCompile("^\\|\\s*`-([a-z0-9-]+)`\\s*\\|")

func TestServeFlagsDocumented(t *testing.T) {
	const src = "cmd/sage-serve/main.go"
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: flag.%s with a non-literal name", src, sel.Sel.Name)
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		defined[name] = true
		return true
	})
	if len(defined) == 0 {
		t.Fatalf("no flags found in %s; the matcher is likely broken", src)
	}

	// The flag tables are the ones whose header row starts with "| Flag |".
	const page = "docs/HTTP_API.md"
	body, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	tables, inTable := 0, false
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "| Flag |"):
			tables++
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			if m := flagCell.FindStringSubmatch(line); m != nil {
				if documented[m[1]] {
					t.Errorf("flag -%s appears twice in the flag tables in %s", m[1], page)
				}
				documented[m[1]] = true
			}
		}
	}
	if tables != 2 {
		t.Fatalf("%s has %d flag tables, want 2 (router and server)", page, tables)
	}

	for name := range defined {
		if !documented[name] {
			t.Errorf("sage-serve flag -%s is missing from the flag tables in %s", name, page)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("%s documents -%s, which sage-serve does not define", page, name)
		}
	}
}
