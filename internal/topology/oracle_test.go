package topology

import "repro/internal/graph"

// Reference builders for the nine arithmetic kinds: each constructs the
// network from its textbook definition, arc by arc through AddArc (words
// built digit by digit, Kautz ids keyed on the word's string), and shares
// no code with the generators. The differential tests pin every generator,
// and so every exported builder, against them.

func oracleCycle(n int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func oracleTorus(a, b int) *graph.Digraph {
	g := graph.New(a * b)
	id := func(r, c int) int { return r*b + c }
	for r := 0; r < a; r++ {
		for c := 0; c < b; c++ {
			g.AddEdge(id(r, c), id(r, (c+1)%b))
			g.AddEdge(id(r, c), id((r+1)%a, c))
		}
	}
	return g
}

func oracleHypercube(D int) *graph.Digraph {
	n := pow(2, D)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < D; b++ {
			w := v ^ (1 << b)
			if v < w {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

func oracleCCC(D int) *graph.Digraph {
	n := D * pow(2, D)
	g := graph.New(n)
	id := func(w, i int) int { return i*pow(2, D) + w }
	for w := 0; w < pow(2, D); w++ {
		for i := 0; i < D; i++ {
			g.AddEdge(id(w, i), id(w, (i+1)%D))
			if w < w^(1<<i) {
				g.AddEdge(id(w, i), id(w^(1<<i), i))
			}
		}
	}
	return g
}

func oracleButterfly(d, D int) *graph.Digraph {
	dD := pow(d, D)
	g := graph.New((D + 1) * dD)
	id := func(x Word, l int) int { return l*dD + WordValue(x, d) }
	for l := 1; l <= D; l++ {
		for v := 0; v < dD; v++ {
			x := ValueWord(v, d, D)
			for beta := 0; beta < d; beta++ {
				y := x.Clone()
				y[l-1] = beta
				g.AddArc(id(x, l), id(y, l-1))
				g.AddArc(id(y, l-1), id(x, l))
			}
		}
	}
	return g
}

// shiftAppend returns x_{D-2}…x_0·β: shift the word left one position and
// append digit β at index 0.
func shiftAppend(x Word, beta int) Word {
	y := make(Word, len(x))
	copy(y[1:], x[:len(x)-1])
	y[0] = beta
	return y
}

func oracleDeBruijn(d, D int, directed bool) *graph.Digraph {
	n := pow(d, D)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		x := ValueWord(v, d, D)
		for beta := 0; beta < d; beta++ {
			to := WordValue(shiftAppend(x, beta), d)
			if to != v && !g.HasArc(v, to) { // no self-loop at a constant word
				g.AddArc(v, to)
			}
		}
	}
	if !directed {
		g = g.SymmetricClosure()
	}
	return g
}

// oracleKautzWords enumerates every Kautz word in id order: lexicographic
// by (x_{D-1}, …, x_0).
func oracleKautzWords(d, D int) []Word {
	var words []Word
	var rec func(buf Word, pos int)
	rec = func(buf Word, pos int) {
		for digit := 0; digit <= d; digit++ {
			if pos < D-1 && buf[pos+1] == digit {
				continue
			}
			buf[pos] = digit
			if pos == 0 {
				words = append(words, buf.Clone())
			} else {
				rec(buf, pos-1)
			}
		}
	}
	rec(make(Word, D), D-1)
	return words
}

func oracleKautz(d, D int, directed bool) *graph.Digraph {
	words := oracleKautzWords(d, D)
	ids := make(map[string]int, len(words))
	for id, x := range words {
		ids[x.String()] = id
	}
	g := graph.New(len(words))
	for id, x := range words {
		for beta := 0; beta <= d; beta++ {
			if beta == x[0] {
				continue
			}
			to, ok := ids[shiftAppend(x, beta).String()]
			if !ok {
				panic("oracle: Kautz shift left the vertex set")
			}
			if !g.HasArc(id, to) {
				g.AddArc(id, to)
			}
		}
	}
	if !directed {
		g = g.SymmetricClosure()
	}
	return g
}
