package delay

import (
	"encoding/binary"

	"repro/internal/matrix"
)

// blockSet is the delay matrix M(λ) in the form Section 4's permutation
// argument gives it: up to a row/column permutation, M(λ) is block diagonal
// with one block per network vertex y, whose rows are the activations
// entering y and whose columns are the activations leaving y (every delay
// arc (x,y,i) → (y,z,j) chains through y). By norm property 8, ‖M(λ)‖ is
// the largest block norm.
//
// rowPtr, col and wExp list the arcs row by row, rows in Build's vertex
// order: arc e of row r is the entry λ^wExp[e] at column col[e] of the
// row's block, columns numbered by round within the block.
// byHead[headOff[y]:headOff[y+1]] are block y's rows, in vertex order.
type blockSet struct {
	rowPtr  []int
	col     []int32
	wExp    []int32
	maxW    int
	byHead  []int32
	headOff []int32
}

// groupRows fills byHead and headOff by a counting sort of the rows on
// their head vertex (one of n).
func (bs *blockSet) groupRows(n int, head func(row int) int) {
	rows := len(bs.rowPtr) - 1
	bs.byHead, bs.headOff = make([]int32, rows), make([]int32, n+1)
	for r := 0; r < rows; r++ {
		bs.headOff[head(r)+1]++
	}
	for y := 0; y < n; y++ {
		bs.headOff[y+1] += bs.headOff[y]
	}
	// headOff[y] is block y's fill cursor; shifting back restores it.
	for r := 0; r < rows; r++ {
		y := head(r)
		bs.byHead[bs.headOff[y]] = int32(r)
		bs.headOff[y]++
	}
	copy(bs.headOff[1:], bs.headOff[:n])
	bs.headOff[0] = 0
}

// blockRep stands for every block structured like block y; k is one past
// its highest column.
type blockRep struct{ y, k int32 }

// distinctBlocks returns one representative per class of non-empty blocks
// with identical structure — row lengths, columns and weight exponents,
// keyed exactly by their varint encoding. Identical blocks have identical
// norms, and a vertex-transitive schedule repeats one block at every vertex.
//
//gossip:allowalloc built once per blockSet, on its first evaluation
func (bs *blockSet) distinctBlocks() []blockRep {
	reps := []blockRep{}
	seen := make(map[string]bool)
	var key []byte
	for y := 0; y+1 < len(bs.headOff); y++ {
		key = key[:0]
		k := int32(0)
		for _, r := range bs.rows(y) {
			key = binary.AppendUvarint(key, uint64(bs.rowPtr[r+1]-bs.rowPtr[r]))
			for e := bs.rowPtr[r]; e < bs.rowPtr[r+1]; e++ {
				key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(bs.col[e])), uint64(bs.wExp[e]))
				k = max(k, bs.col[e]+1)
			}
		}
		if k > 0 && !seen[string(key)] {
			seen[string(key)] = true
			reps = append(reps, blockRep{int32(y), k})
		}
	}
	return reps
}

func (bs *blockSet) rows(y int) []int32 { return bs.byHead[bs.headOff[y]:bs.headOff[y+1]] }

// blockNorm evaluates ‖M(λ)‖ over a blockSet as the largest block norm,
// each distinct block solved once by the Lanczos kernel matrix.OpNorm2.
// After the first evaluation it allocates nothing.
type blockNorm struct {
	set     *blockSet
	reps    []blockRep // built on first use
	pow     []float64  // pow[w] = λ^w, len maxW+1
	op      blockOp
	scratch matrix.NormScratch
}

//gossip:hotpath
func (bn *blockNorm) norm(lambda float64) float64 {
	if bn.reps == nil {
		bn.reps = bn.set.distinctBlocks()
	}
	// The repeated-multiply sequence of powf, so entries are bit-identical
	// to Digraph.Matrix's.
	p := 1.0
	for w := range bn.pow {
		bn.pow[w] = p
		p *= lambda
	}
	var norm float64
	for _, r := range bn.reps {
		bn.op = blockOp{set: bn.set, rows: bn.set.rows(int(r.y)), k: int(r.k), pow: bn.pow}
		norm = max(norm, matrix.OpNorm2(&bn.op, &bn.scratch))
	}
	return norm
}

// blockOp is one block of M(λ) as a matrix.Operator, read straight from
// the block index: row i is the arc list of rows[i].
type blockOp struct {
	set  *blockSet
	rows []int32
	k    int
	pow  []float64
}

func (o *blockOp) Rows() int { return len(o.rows) }
func (o *blockOp) Cols() int { return o.k }

func (o *blockOp) MulVecTo(dst, v matrix.Vector) matrix.Vector {
	bs := o.set
	for i, r := range o.rows {
		var s float64
		for e := bs.rowPtr[r]; e < bs.rowPtr[r+1]; e++ {
			s += o.pow[bs.wExp[e]] * v[bs.col[e]]
		}
		dst[i] = s
	}
	return dst
}

func (o *blockOp) TransposeMulVecTo(dst, v matrix.Vector) matrix.Vector {
	bs := o.set
	clear(dst)
	for i, r := range o.rows {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for e := bs.rowPtr[r]; e < bs.rowPtr[r+1]; e++ {
			dst[bs.col[e]] += o.pow[bs.wExp[e]] * vi
		}
	}
	return dst
}
