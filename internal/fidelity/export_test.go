package fidelity

// The fuzz target lives in the external test package so it can evaluate
// the reproduction's own scoreboard (expt imports fidelity); these expose
// the byte-level parse and the two report renderers to it.
var (
	Parse          = parse
	RenderMarkdown = renderMarkdown
	RenderHTML     = renderHTML
)
