package main

import (
	"flag"
	"net/url"
	"os"
)

// runExplain implements `tierctl explain`: EXPLAIN/ANALYZE one query
// through a running instance's /explain endpoint and print the plan as
// the text tree or as JSON.
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	addr := fs.String("addr", "", "observability address of a running instance (host:port or http://...)")
	table := fs.String("table", "", "table to explain against")
	query := fs.String("q", "", "predicates as col=val,col=lo..hi (comma separated)")
	project := fs.String("project", "", "comma-separated projection columns (optional)")
	analyze := fs.Bool("analyze", false, "execute the query and annotate the plan with observed costs")
	asJSON := fs.Bool("json", false, "print the raw JSON plan instead of the text tree")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *addr == "" || *table == "" {
		fail("explain needs -addr ADDR and -table NAME (see tierctl explain -h)")
	}
	body, err := obsGet(*addr, explainPath(*table, *query, *project, *analyze, *asJSON))
	if err != nil {
		fail("%v", err)
	}
	os.Stdout.Write(body)
}

// explainPath builds the /explain request: the server parses the query
// and renders the plan, as JSON or, with format=text, as the text tree.
func explainPath(table, query, project string, analyze, asJSON bool) string {
	v := url.Values{"table": {table}, "q": {query}, "project": {project}}
	if analyze {
		v.Set("analyze", "1")
	}
	if !asJSON {
		v.Set("format", "text")
	}
	return "/explain?" + v.Encode()
}
