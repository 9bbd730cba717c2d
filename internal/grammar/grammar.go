// Package grammar implements context-free grammar specifications,
// grammar composition, LALR(1) parse-table construction, a table-driven
// parser, and the modular determinism ("isComposable") analysis from
// Schwerdfeger & Van Wyk that underpins the paper's guarantee that
// independently developed language extensions compose into a working
// deterministic parser.
//
// A Grammar is assembled from a host specification plus any number of
// extension specifications; terminals and productions carry an Owner tag
// identifying which extension contributed them ("" is the host).
package grammar

import (
	"fmt"
	"strings"

	"repro/internal/rx"
	"repro/internal/source"
)

// Assoc is operator associativity used for conflict resolution.
type Assoc int

// Associativity values.
const (
	AssocNone Assoc = iota
	AssocLeft
	AssocRight
)

// HostOwner is the owner tag for host-language symbols and productions.
const HostOwner = ""

// Terminal is a lexical terminal symbol.
type Terminal struct {
	Name     string
	Pattern  *rx.NFA
	Owner    string // extension that declared it; "" = host
	Priority int    // scanner tie-break: higher wins at equal match length
	Skip     bool   // whitespace/comment terminals: matched, never shifted
	Prec     int    // operator precedence (0 = none)
	Assoc    Assoc
}

// Nonterminal is a syntactic category.
type Nonterminal struct {
	Name  string
	Owner string
}

// Production is one grammar rule LHS -> RHS with a semantic action.
// The action receives one value per RHS symbol: a Token for terminals
// and the child production's action result for nonterminals.
type Production struct {
	Name   string // optional label, for diagnostics and debugging
	LHS    string
	RHS    []string
	Owner  string
	Action func(children []any) any
	// PrecTerm optionally names a terminal whose precedence this
	// production uses for shift/reduce resolution (like yacc %prec).
	PrecTerm string
}

// String renders the production like "Expr -> Expr '+' Expr".
func (p *Production) String() string {
	if len(p.RHS) == 0 {
		return p.LHS + " -> <empty>"
	}
	return p.LHS + " -> " + strings.Join(p.RHS, " ")
}

// Spec is a composable grammar fragment: the host language is a Spec
// and each language extension is a Spec.
type Spec struct {
	Name         string // owner tag; "" for host
	Terminals    []*Terminal
	Nonterminals []*Nonterminal
	Productions  []*Production
}

// Grammar is a composed grammar ready for table construction.
type Grammar struct {
	Start string

	terms   map[string]*Terminal
	nts     map[string]*Nonterminal
	prods   []*Production
	byLHS   map[string][]int // production indices
	specs   []string         // owner names in composition order
	ordered []string         // terminal names in declaration order
}

// EOFName is the reserved end-of-input terminal.
const EOFName = "$eof"

// New creates a grammar with the given start nonterminal from the host
// spec composed with the given extension specs. Symbol clashes across
// specs are reported as errors (same-name terminals with different
// patterns, duplicate nonterminal ownership is permitted — extensions
// may add productions to host nonterminals, which is the whole point).
func New(start string, host *Spec, exts ...*Spec) (*Grammar, error) {
	g := &Grammar{
		Start: start,
		terms: map[string]*Terminal{},
		nts:   map[string]*Nonterminal{},
		byLHS: map[string][]int{},
	}
	g.terms[EOFName] = &Terminal{Name: EOFName, Owner: HostOwner}
	all := append([]*Spec{host}, exts...)
	for _, s := range all {
		g.specs = append(g.specs, s.Name)
		for _, t := range s.Terminals {
			if t.Name == EOFName {
				return nil, fmt.Errorf("grammar: terminal name %s is reserved", EOFName)
			}
			if prev, ok := g.terms[t.Name]; ok {
				return nil, fmt.Errorf("grammar: terminal %q declared by both %q and %q",
					t.Name, ownerLabel(prev.Owner), ownerLabel(t.Owner))
			}
			if t.Pattern != nil && t.Pattern.AcceptsEmpty() {
				return nil, fmt.Errorf("grammar: terminal %q pattern accepts the empty string", t.Name)
			}
			g.terms[t.Name] = t
			g.ordered = append(g.ordered, t.Name)
		}
		for _, nt := range s.Nonterminals {
			if _, ok := g.nts[nt.Name]; !ok {
				g.nts[nt.Name] = nt
			}
		}
		for _, p := range s.Productions {
			g.prods = append(g.prods, p)
		}
	}
	for i, p := range g.prods {
		g.byLHS[p.LHS] = append(g.byLHS[p.LHS], i)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func ownerLabel(owner string) string {
	if owner == HostOwner {
		return "host"
	}
	return owner
}

func (g *Grammar) validate() error {
	if _, ok := g.nts[g.Start]; !ok {
		return fmt.Errorf("grammar: start symbol %q is not a declared nonterminal", g.Start)
	}
	for _, p := range g.prods {
		if _, ok := g.nts[p.LHS]; !ok {
			return fmt.Errorf("grammar: production %q has undeclared LHS %q", p, p.LHS)
		}
		for _, s := range p.RHS {
			if !g.IsTerminal(s) && !g.IsNonterminal(s) {
				return fmt.Errorf("grammar: production %q uses undeclared symbol %q", p, s)
			}
			if s == EOFName {
				return fmt.Errorf("grammar: production %q uses reserved terminal %s", p, EOFName)
			}
		}
		if p.PrecTerm != "" {
			if _, ok := g.terms[p.PrecTerm]; !ok {
				return fmt.Errorf("grammar: production %q names undeclared precedence terminal %q", p, p.PrecTerm)
			}
		}
	}
	for name := range g.nts {
		if len(g.byLHS[name]) == 0 {
			return fmt.Errorf("grammar: nonterminal %q has no productions", name)
		}
	}
	// Every non-skip terminal needs a pattern to be scannable.
	for name, t := range g.terms {
		if name != EOFName && t.Pattern == nil {
			return fmt.Errorf("grammar: terminal %q has no pattern", name)
		}
	}
	return nil
}

// IsTerminal reports whether name is a declared terminal.
func (g *Grammar) IsTerminal(name string) bool { _, ok := g.terms[name]; return ok }

// IsNonterminal reports whether name is a declared nonterminal.
func (g *Grammar) IsNonterminal(name string) bool { _, ok := g.nts[name]; return ok }

// Terminal returns the named terminal, or nil.
func (g *Grammar) Terminal(name string) *Terminal { return g.terms[name] }

// Terminals returns all terminals in declaration order (skips included,
// $eof excluded).
func (g *Grammar) Terminals() []*Terminal {
	out := make([]*Terminal, 0, len(g.ordered))
	for _, n := range g.ordered {
		out = append(out, g.terms[n])
	}
	return out
}

// Productions returns the production list in composition order.
func (g *Grammar) Productions() []*Production { return g.prods }

// Owners returns the owner tags composed into this grammar, host first.
func (g *Grammar) Owners() []string { return g.specs }

// prodPrec returns the effective precedence/associativity of a
// production: the explicit PrecTerm if set, else the last terminal of
// the RHS (classic yacc rule).
func (g *Grammar) prodPrec(p *Production) (int, Assoc) {
	name := p.PrecTerm
	if name == "" {
		for i := len(p.RHS) - 1; i >= 0; i-- {
			if g.IsTerminal(p.RHS[i]) {
				name = p.RHS[i]
				break
			}
		}
	}
	if name == "" {
		return 0, AssocNone
	}
	t := g.terms[name]
	return t.Prec, t.Assoc
}

// Token is one scanned token delivered to the parser.
type Token struct {
	Terminal string
	Text     string
	Span     source.Span
}

func (t Token) String() string {
	if t.Text == "" || t.Text == t.Terminal {
		return t.Terminal
	}
	return fmt.Sprintf("%s(%q)", t.Terminal, t.Text)
}

// TokenSource is the scanner interface the parser drives. The parser
// passes the set of terminal names that are valid in its current state;
// a context-aware scanner restricts matching to that set (plus skips).
type TokenSource interface {
	NextToken(valid map[string]bool) (Token, error)
}

// SliceTokenSource adapts a pre-scanned token slice to TokenSource,
// ignoring the valid set. Used in tests.
type SliceTokenSource struct {
	Tokens []Token
	pos    int
}

// NextToken returns the next token, or an $eof token when exhausted.
func (s *SliceTokenSource) NextToken(valid map[string]bool) (Token, error) {
	if s.pos >= len(s.Tokens) {
		return Token{Terminal: EOFName}, nil
	}
	t := s.Tokens[s.pos]
	s.pos++
	return t, nil
}

// Lit is a convenience constructor for a fixed-spelling terminal
// (keyword or operator). Priority 1 makes keywords win ties against
// identifier-class terminals (priority 0) under maximal munch.
func Lit(name, spelling, owner string) *Terminal {
	return &Terminal{Name: name, Pattern: rx.Literal(spelling), Owner: owner, Priority: 1}
}

// LitOp is Lit plus operator precedence and associativity.
func LitOp(name, spelling, owner string, prec int, assoc Assoc) *Terminal {
	t := Lit(name, spelling, owner)
	t.Prec = prec
	t.Assoc = assoc
	return t
}

// Pat is a convenience constructor for a pattern terminal.
func Pat(name, pattern, owner string) *Terminal {
	return &Terminal{Name: name, Pattern: rx.MustCompile(pattern), Owner: owner}
}

// Rule is a convenience constructor for a production.
func Rule(owner, lhs string, rhs []string, action func([]any) any) *Production {
	return &Production{LHS: lhs, RHS: rhs, Owner: owner, Action: action}
}
