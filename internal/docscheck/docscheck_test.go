// Package docscheck keeps the repository's markdown honest: every relative
// link in every *.md file must point at a file or directory that exists,
// and every repo-relative path quoted in a code span must too.
// It runs as a plain test, so doc rot fails tier-1 and the CI docs job
// alike — no external link-checker dependency needed.
package docscheck

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target) links. Images ([![..]](..)) and reference
// definitions are close enough in shape to be caught by the same pattern.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Only the repo's own documentation: skip VCS internals.
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if len(mdFiles) < 5 {
		t.Fatalf("found only %d markdown files under %s — walk misconfigured?", len(mdFiles), root)
	}

	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatalf("read %s: %v", md, err)
		}
		rel, _ := filepath.Rel(root, md)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue // external or intra-document: not a file claim
			}
			// Strip an anchor suffix; the file half must still exist.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", rel, m[1], resolved)
			}
		}
	}
}

// codeSpan matches single-backtick inline code with no spaces — the shape a
// quoted file path takes in prose.
var codeSpan = regexp.MustCompile("`([^`\\s]+)`")

// pathRoots are the repo directories a code-span path claim may start
// with. A span like `internal/ops` is a claim that the path exists; spans
// starting anywhere else (`approxiot.Open`, `/metrics`, `go test`) are not
// path claims and are ignored.
var pathRoots = []string{"internal/", "examples/", "cmd/", "docs/", "scripts/", ".github/"}

// openTask matches an unchecked task-list item. It describes work still to
// be done, which may name a file that work deletes, so its spans are not
// claims that a path exists.
var openTask = regexp.MustCompile(`^\s*[-*] \[ \]`)

// TestMarkdownPathClaims verifies that repo-relative paths quoted in
// markdown code spans exist — the rot class where prose cites
// `internal/foo` or an exemplar directory long after it was renamed or
// never existed in this checkout. Only paths under the known repo roots
// are checked, always against the repository root (unlike links, which
// resolve against the referencing file). `:line` and `/...` suffixes are
// stripped first; a span with a glob pattern must match at least one path.
// Unchecked task-list items are skipped.
func TestMarkdownPathClaims(t *testing.T) {
	root := repoRoot(t)
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}

	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatalf("read %s: %v", md, err)
		}
		rel, _ := filepath.Rel(root, md)
		var claims [][]string
		for _, line := range strings.Split(string(data), "\n") {
			if !openTask.MatchString(line) {
				claims = append(claims, codeSpan.FindAllStringSubmatch(line, -1)...)
			}
		}
		for _, m := range claims {
			target := m[1]
			claimed := false
			for _, prefix := range pathRoots {
				if strings.HasPrefix(target, prefix) {
					claimed = true
					break
				}
			}
			if !claimed {
				continue
			}
			// `pkg/file.go:123` cites a line, `pkg/...` a subtree — the
			// path half must still exist.
			if i := strings.IndexByte(target, ':'); i >= 0 {
				target = target[:i]
			}
			target = strings.TrimSuffix(target, "/...")
			target = strings.TrimSuffix(target, "/")
			if matches, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(target))); err != nil || len(matches) == 0 {
				t.Errorf("%s: code span cites %q but %s does not exist in the repo", rel, m[1], target)
			}
		}
	}
}
