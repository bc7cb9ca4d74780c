package mltrain

import "slices"

// TreeNode is one node of a regression tree.
type TreeNode struct {
	IsLeaf    bool
	Value     float64 // leaf prediction
	Feature   int
	Threshold float64
	Left      *TreeNode
	Right     *TreeNode
}

func (n *TreeNode) predict(x []float64) float64 {
	for !n.IsLeaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// GBTRegressor is gradient-boosted regression trees (the paper's GBTR
// workload): each training step fits one depth-limited CART tree to the
// current residuals and adds it with shrinkage equal to the step's learning
// rate. Steps therefore equal boosting rounds, matching the nt (number of
// trees) hyper-parameter.
type GBTRegressor struct {
	MaxDepth int
	MinLeaf  int

	Base    float64
	Started bool
	Trees   []*TreeNode
	Weights []float64 // shrinkage per tree

	// scratch is the per-node split-search buffer, reused across features,
	// nodes, and boosting rounds.
	scratch []featSample
}

// featSample pairs one candidate sample's feature value with its position in
// the node's resid slice, so the split scan sorts a flat concrete slice
// instead of chasing ds.X[idx[order[k]]][f] through a reflective comparator.
type featSample struct {
	x float64
	k int32
}

var _ Model = (*GBTRegressor)(nil)

// NewGBTRegressor builds an empty ensemble.
func NewGBTRegressor(maxDepth, minLeaf int) *GBTRegressor {
	if maxDepth < 1 {
		maxDepth = 1
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	return &GBTRegressor{MaxDepth: maxDepth, MinLeaf: minLeaf}
}

func (m *GBTRegressor) predict(x []float64) float64 {
	s := m.Base
	for i, t := range m.Trees {
		s += m.Weights[i] * t.predict(x)
	}
	return s
}

// TrainStep implements Model: one boosting round on the given subsample
// (stochastic gradient boosting).
func (m *GBTRegressor) TrainStep(ds *Dataset, idx []int, lr float64) {
	if len(idx) == 0 {
		return
	}
	if !m.Started {
		s := 0.0
		for _, i := range idx {
			s += ds.Y[i]
		}
		m.Base = s / float64(len(idx))
		m.Started = true
	}
	resid := make([]float64, len(idx))
	for k, i := range idx {
		resid[k] = ds.Y[i] - m.predict(ds.X[i])
	}
	tree := m.buildTree(ds, idx, resid, 0)
	m.Trees = append(m.Trees, tree)
	m.Weights = append(m.Weights, lr)
}

// buildTree grows a CART regression tree on (idx, resid) greedily by SSE.
func (m *GBTRegressor) buildTree(ds *Dataset, idx []int, resid []float64, depth int) *TreeNode {
	mean := 0.0
	for _, r := range resid {
		mean += r
	}
	mean /= float64(len(resid))
	if depth >= m.MaxDepth || len(idx) < 2*m.MinLeaf {
		return &TreeNode{IsLeaf: true, Value: mean}
	}
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	total := 0.0
	totalSq := 0.0
	for _, r := range resid {
		total += r
		totalSq += r * r
	}
	n := float64(len(resid))
	parentSSE := totalSq - total*total/n

	if cap(m.scratch) < len(idx) {
		m.scratch = make([]featSample, len(idx))
	}
	samples := m.scratch[:len(idx)]
	for f := 0; f < ds.Dim(); f++ {
		// Extract the feature column once, then sort the flat pairs with a
		// concrete comparator (ties broken by node position, so the scan
		// order — and with it the grown tree — is deterministic).
		for k, i := range idx {
			samples[k] = featSample{x: ds.X[i][f], k: int32(k)}
		}
		slices.SortFunc(samples, func(a, b featSample) int {
			switch {
			case a.x < b.x:
				return -1
			case a.x > b.x:
				return 1
			case a.k < b.k:
				return -1
			case a.k > b.k:
				return 1
			}
			return 0
		})
		leftSum, leftSq := 0.0, 0.0
		for pos := 0; pos < len(samples)-1; pos++ {
			r := resid[samples[pos].k]
			leftSum += r
			leftSq += r * r
			ln := float64(pos + 1)
			rn := n - ln
			if int(ln) < m.MinLeaf || int(rn) < m.MinLeaf {
				continue
			}
			xCur := samples[pos].x
			xNext := samples[pos+1].x
			if xCur == xNext {
				continue
			}
			rightSum := total - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/ln) + (rightSq - rightSum*rightSum/rn)
			if gain := parentSSE - sse; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (xCur + xNext) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &TreeNode{IsLeaf: true, Value: mean}
	}
	nl := 0
	for _, i := range idx {
		if ds.X[i][bestFeat] <= bestThresh {
			nl++
		}
	}
	li := make([]int, 0, nl)
	ri := make([]int, 0, len(idx)-nl)
	lr2 := make([]float64, 0, nl)
	rr := make([]float64, 0, len(idx)-nl)
	for k, i := range idx {
		if ds.X[i][bestFeat] <= bestThresh {
			li = append(li, i)
			lr2 = append(lr2, resid[k])
		} else {
			ri = append(ri, i)
			rr = append(rr, resid[k])
		}
	}
	return &TreeNode{
		Feature:   bestFeat,
		Threshold: bestThresh,
		Left:      m.buildTree(ds, li, lr2, depth+1),
		Right:     m.buildTree(ds, ri, rr, depth+1),
	}
}

// Loss implements Model: mean squared error.
func (m *GBTRegressor) Loss(ds *Dataset) float64 {
	total := 0.0
	for i, x := range ds.X {
		d := m.predict(x) - ds.Y[i]
		total += d * d
	}
	return total / float64(len(ds.X))
}
