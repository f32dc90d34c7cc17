package comm

import "fmt"

// Topology-aware hierarchical collectives: ranks are grouped by the node
// they are placed on (Peer.NodeOf), one leader per node (its lowest rank)
// carries the inter-node phase, and the intra-node phases stay inside each
// node's shared-memory channel. On a multi-node placement this turns the
// flat algorithms' O(n log n) inter-node messages into O(#nodes log #nodes)
// leader traffic plus node-local trees — the payoff the topology experiment
// measures in modeled byte-hops.
//
// The algorithms are built from the same Peer point-to-point primitives as
// the flat generics, so they run on every engine, and they are content-
// identical to the flat algorithms for associative, commutative reduction
// operations (integer sums; floating-point sums may differ in the last ulp
// because the combine order differs — differential tests use SumInt64).
//
// Tags live in their own region of the negative space (below -hierTagBase)
// so hierarchical phases never collide with the flat generics' tags or with
// user tags.

// hierTagBase offsets the hierarchical collectives' tag region.
const hierTagBase = 1_000_000_000

// Operation/phase ids for the hierarchical tag space.
const (
	hierOpBcast = iota
	hierOpAllreduce
	hierOpAlltoall
)

// hierTag draws the next tag for phase ph of a hierarchical operation.
// Every rank draws the same tags in the same order (MPI collective-order
// requirement), exactly like the flat generics' collTag.
func hierTag(seq *int, op, ph int) int {
	*seq++
	return -(hierTagBase + (op*8+ph)*1_000_000 + *seq%1_000_000 + 1)
}

// nodeMap is the per-operation view of the placement: ranks grouped by
// node, nodes in ascending id order, leaders = each node's lowest rank.
type nodeMap struct {
	nodes   []int   // node ids, ascending
	ranks   [][]int // ranks[i] = ranks on nodes[i], ascending
	leaders []int   // leaders[i] = ranks[i][0]
	nodeIdx map[int]int
}

func buildNodeMap(p Peer) *nodeMap {
	nm := &nodeMap{nodeIdx: make(map[int]int)}
	for r := 0; r < p.Size(); r++ {
		node := p.NodeOf(r)
		i, ok := nm.nodeIdx[node]
		if !ok {
			// Ranks ascend, and block/spread placements assign nodes in
			// ascending id order for ascending ranks' first appearance.
			i = len(nm.nodes)
			nm.nodeIdx[node] = i
			nm.nodes = append(nm.nodes, node)
			nm.ranks = append(nm.ranks, nil)
		}
		nm.ranks[i] = append(nm.ranks[i], r)
	}
	for _, list := range nm.ranks {
		nm.leaders = append(nm.leaders, list[0])
	}
	return nm
}

// myNode returns the caller's node index within the map.
func (nm *nodeMap) myNode(p Peer) int { return nm.nodeIdx[p.NodeOf(p.Rank())] }

// pos returns rank's position in list, or -1.
func pos(list []int, rank int) int {
	for i, r := range list {
		if r == rank {
			return i
		}
	}
	return -1
}

// listBcast broadcasts r over the ranks of list (binomial tree rooted at
// list[rootPos]). Only participants (callers whose rank is in list) act.
// GenericBcast is this tree over every rank.
func listBcast(p Peer, tag int, list []int, rootPos int, r Range) {
	n := len(list)
	me := pos(list, p.Rank())
	if n <= 1 || me < 0 {
		return
	}
	rel := (me - rootPos + n) % n
	if rel != 0 {
		mask := 1
		for mask < n && rel&mask == 0 {
			mask <<= 1
		}
		p.Recv(list[(rel-mask+rootPos+n)%n], tag, r)
	}
	mask := 1
	for mask < n && rel&mask == 0 {
		mask <<= 1
	}
	for child := mask >> 1; child >= 1; child >>= 1 {
		if rel+child < n {
			p.Send(list[(rel+child+rootPos)%n], tag, r)
		}
	}
}

// listReduce combines every list member's r into list[rootPos]'s (binomial
// tree). Only participants act. GenericReduce is this tree over every rank.
func listReduce(p Peer, tag int, list []int, rootPos int, r Range, op ReduceOp) {
	n := len(list)
	me := pos(list, p.Rank())
	if n <= 1 || me < 0 {
		return
	}
	rel := (me - rootPos + n) % n
	tmp := p.Alloc(r.Len)
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			peer := rel | mask
			if peer < n {
				p.Recv(list[(peer+rootPos)%n], tag, Whole(tmp))
				op(r.bytes(), tmp.Bytes())
			}
		} else {
			p.Send(list[(rel-mask+rootPos+n)%n], tag, r)
			break
		}
		mask <<= 1
	}
}

// HierBcast broadcasts root's range: root hands to its node leader, the
// leaders run a binomial tree, every leader fans out inside its node.
func HierBcast(p Peer, seq *int, root int, r Range) {
	tRoot := hierTag(seq, hierOpBcast, 0)
	tLead := hierTag(seq, hierOpBcast, 1)
	tIntra := hierTag(seq, hierOpBcast, 2)
	if p.Size() == 1 {
		return
	}
	nm := buildNodeMap(p)
	rootIdx := nm.nodeIdx[p.NodeOf(root)]
	rootLeader := nm.leaders[rootIdx]
	me := p.Rank()
	if root != rootLeader {
		if me == root {
			p.Send(rootLeader, tRoot, r)
		}
		if me == rootLeader {
			p.Recv(root, tRoot, r)
		}
	}
	listBcast(p, tLead, nm.leaders, rootIdx, r)
	listBcast(p, tIntra, nm.ranks[nm.myNode(p)], 0, r)
}

// HierAllreduce combines every rank's range: intra-node reduce to each
// leader, leader reduce + broadcast, intra-node broadcast.
func HierAllreduce(p Peer, seq *int, r Range, op ReduceOp) {
	tIntraRed := hierTag(seq, hierOpAllreduce, 0)
	tLeadRed := hierTag(seq, hierOpAllreduce, 1)
	tLeadBc := hierTag(seq, hierOpAllreduce, 2)
	tIntraBc := hierTag(seq, hierOpAllreduce, 3)
	if p.Size() == 1 {
		return
	}
	nm := buildNodeMap(p)
	local := nm.ranks[nm.myNode(p)]
	listReduce(p, tIntraRed, local, 0, r, op)
	listReduce(p, tLeadRed, nm.leaders, 0, r, op)
	listBcast(p, tLeadBc, nm.leaders, 0, r)
	listBcast(p, tIntraBc, local, 0, r)
}

// HierAlltoall exchanges equal blocks through node leaders: each leader
// gathers its members' send buffers, the leaders run a pairwise exchange of
// node-aggregated chunks (each ordered [destination member][source member]
// so scatter segments are contiguous), and every leader scatters per-source-
// node segments to its members, who place the blocks at their source-rank
// offsets. Inter-node wire traffic is one aggregated message per ordered
// node pair instead of one per rank pair.
func HierAlltoall(p Peer, seq *int, send, recv Buf, block int64) {
	n := p.Size()
	if block < 0 {
		panic(fmt.Sprintf("comm: Alltoall negative block size %d", block))
	}
	if send.Len() < block*int64(n) || recv.Len() < block*int64(n) {
		panic(fmt.Sprintf("comm: Alltoall buffers too small for %d x %d", n, block))
	}
	tGather := hierTag(seq, hierOpAlltoall, 0)
	tExch := hierTag(seq, hierOpAlltoall, 1)
	tScatter := hierTag(seq, hierOpAlltoall, 2)
	nm := buildNodeMap(p)
	myIdx := nm.myNode(p)
	local := nm.ranks[myIdx]
	leader := local[0]
	me := p.Rank()
	num := len(nm.nodes)
	row := int64(n) * block // one member's full send buffer

	if me != leader {
		p.Send(leader, tGather, R(send, 0, row))
		for j := 0; j < num; j++ {
			mj := nm.ranks[j]
			stage := p.Alloc(int64(len(mj)) * block)
			p.Recv(leader, tScatter, Whole(stage))
			for si, k := range mj {
				p.CopyLocal(R(recv, int64(k)*block, block), R(stage, int64(si)*block, block))
			}
		}
		return
	}

	// Leader: gather member rows ([member][destination rank] blocks).
	gath := p.Alloc(int64(len(local)) * row)
	for idx, k := range local {
		seg := R(gath, int64(idx)*row, row)
		if k == me {
			p.CopyLocal(seg, R(send, 0, row))
		} else {
			p.Recv(k, tGather, seg)
		}
	}

	// chunkFor reorders the gathered rows into the [dst member of node
	// j][src member here] chunk bound for node j's leader.
	chunkFor := func(j int) Buf {
		mj := nm.ranks[j]
		out := p.Alloc(int64(len(mj)) * int64(len(local)) * block)
		off := int64(0)
		for _, d := range mj {
			for idx := range local {
				p.CopyLocal(R(out, off, block),
					R(gath, int64(idx)*row+int64(d)*block, block))
				off += block
			}
		}
		return out
	}

	// Pairwise leader exchange (rotation schedule); chunks[j] ends ordered
	// [dst member here][src member of node j].
	chunks := make([]Buf, num)
	chunks[myIdx] = chunkFor(myIdx)
	for step := 1; step < num; step++ {
		to := (myIdx + step) % num
		from := (myIdx - step + num) % num
		out := chunkFor(to)
		in := p.Alloc(int64(len(local)) * int64(len(nm.ranks[from])) * block)
		p.Sendrecv(nm.leaders[to], tExch, Whole(out), nm.leaders[from], tExch, Whole(in))
		chunks[from] = in
	}

	// Scatter: member d's segment of chunks[j] is contiguous.
	for j := 0; j < num; j++ {
		mj := nm.ranks[j]
		width := int64(len(mj)) * block
		for di, d := range local {
			seg := R(chunks[j], int64(di)*width, width)
			if d == me {
				for si, k := range mj {
					p.CopyLocal(R(recv, int64(k)*block, block),
						R(chunks[j], int64(di)*width+int64(si)*block, block))
				}
			} else {
				p.Send(d, tScatter, seg)
			}
		}
	}
}

// WrapHier returns a peer whose Bcast, Allreduce and Alltoall run the
// hierarchical node-aware algorithms; Barrier, Alltoallv, point-to-point and
// everything else delegate to p unchanged. Engines wrap their peers with it
// when the job's placement spans more than one node (unless
// JobSpec.FlatCollectives keeps the flat algorithms for differential runs).
func WrapHier(p Peer) Peer { return &hierPeer{Peer: p} }

type hierPeer struct {
	Peer
	seq int
}

func (h *hierPeer) Bcast(root int, r Range) { HierBcast(h.Peer, &h.seq, root, r) }

func (h *hierPeer) Allreduce(r Range, op ReduceOp) { HierAllreduce(h.Peer, &h.seq, r, op) }

func (h *hierPeer) Alltoall(send, recv Buf, block int64) {
	HierAlltoall(h.Peer, &h.seq, send, recv, block)
}
