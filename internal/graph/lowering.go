package graph

// PackedArc is an arc lowered onto the flat word-array state layout the
// gossip engine executes: SrcOff and DstOff are the first word offsets of
// From's and To's knowledge blocks (vertex × words-per-vertex), precomputed
// so the hot loop never multiplies. From and To are retained for backends
// that address vertices directly (the packed broadcast frontier, the
// completion certificate).
type PackedArc struct {
	SrcOff, DstOff int32
	From, To       int32
}

// PackArcs lowers round onto a words-per-vertex state layout, appending one
// PackedArc per arc to dst and returning the extended slice. Callers
// validate arc ranges; PackArcs itself is a pure layout computation.
func PackArcs(dst []PackedArc, round []Arc, words int) []PackedArc {
	for _, a := range round {
		dst = append(dst, PackedArc{
			SrcOff: int32(a.From * words),
			DstOff: int32(a.To * words),
			From:   int32(a.From),
			To:     int32(a.To),
		})
	}
	return dst
}
