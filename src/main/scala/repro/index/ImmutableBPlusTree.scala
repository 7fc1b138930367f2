package repro.index

import repro.core.{Elem, LongVec, Telemetry}

/** Immutable B+-Tree — the paper's CSS-Tree-style search component `T_S`
  * (Section 3.1, Appendix A.3).
  *
  * All nodes live in flat arrays arranged breadth-first; child positions
  * are computed, not stored, so an inner node spends every slot on keys
  * and reaches a higher fan-out (and lower depth) than the classic
  * reference-based design. The structure is built once from a sorted
  * element array and never modified; traversal is therefore lock-free.
  *
  * Layout: `leaves` is the sorted packed (key, ref) element array;
  * `inners` holds `fanout` key slots per node, where slot j of a node is
  * the max key of its j-th child subtree (missing children are padded
  * with Int.MaxValue so ragged right edges need no per-node size).
  */
final class ImmutableBPlusTree private (
    val leaves: Array[Long],
    val inners: Array[Int],
    val fanout: Int,
    val leafNodeSize: Int,
    /** number of inner levels; level 0 is the root, leaves sit below level depth-1 */
    val depth: Int,
    /** node-count per inner level */
    val levelCounts: Array[Int],
    /** key-slot offset of each inner level inside `inners` */
    val levelOffsets: Array[Int],
) {

  /** Total number of indexed elements. */
  def size: Int = leaves.length

  /** Number of leaf nodes (ceil(size / leafNodeSize)). */
  def numLeafNodes: Int = (leaves.length + leafNodeSize - 1) / leafNodeSize

  /** Tree height counting the leaf level (empty tree has height 0). */
  def height: Int = if (leaves.isEmpty) 0 else depth + 1

  /** Index of the first element with key >= lo, or size if none. */
  def lowerBound(lo: Int): Int =
    if (leaves.length == 0) 0 else leafLowerBound(descend(lo, depth, 0).toInt, lo)

  /** Append every element with lo <= key <= hi to `out`, in key order. */
  def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = { rangeSearchAt(lo, hi, 0, out); () }

  /** `rangeSearch(lo, hi, out)` and `nodeIndexAtLevel(lo, level)` in one
    * walk from the root (Algorithm 2): returns the node at `level` passed
    * on the way down to `lo`'s leaf.
    */
  def rangeSearchAt(lo: Int, hi: Int, level: Int, out: LongVec): Int = {
    val len  = leaves.length
    val walk = if (len == 0) 0L else descend(lo, depth, level)
    var idx  = if (len == 0) 0 else leafLowerBound(walk.toInt, lo)
    while (idx < len && Elem.key(leaves(idx)) <= hi) {
      out.add(leaves(idx))
      idx += 1
    }
    Telemetry.load((out.size + 1).toLong * 8)
    (walk >>> 32).toInt
  }

  /** Index of the first element with key >= lo, searching from leaf node `leaf`. */
  private def leafLowerBound(leaf: Int, lo: Int): Int = {
    val len = leaves.length
    var idx = leaf * leafNodeSize
    Telemetry.load(leafNodeSize.toLong * 8)
    while (idx < len && Elem.key(leaves(idx)) < lo) idx += 1
    idx
  }

  /** Routing level actually usable as a PIM-Tree insertion depth: the
    * deepest inner level, capped at the requested depth.
    */
  def effectiveInsertionLevel(requestedDepth: Int): Int =
    if (depth == 0) 0 else math.min(requestedDepth, depth - 1) max 0

  /** Number of nodes at an inner level (1 partition for an empty tree). */
  def nodesAtLevel(level: Int): Int =
    if (depth == 0 || level == 0) 1 else levelCounts(level)

  /** BFS index of the node at `level` whose key range contains `key`
    * (the partition-routing walk of Algorithm 1, lines 1–7).
    */
  def nodeIndexAtLevel(key: Int, level: Int): Int =
    if (depth == 0 || level == 0) 0 else descend(key, level, 0).toInt

  /** Walk from the root towards `key` down to `target` (an inner level, or
    * `depth` for the leaf nodes). Returns the BFS index of the node reached
    * there in the low 32 bits, and of the node passed at level `mark` (at
    * most `target`) in the high 32. Indexes past a ragged right edge are
    * capped at the level's last node.
    */
  private def descend(key: Int, target: Int, mark: Int): Long = {
    var p      = 0
    var marked = 0
    var l      = 0
    while (l < target) {
      val base = levelOffsets(l) + p * fanout
      Telemetry.load(fanout.toLong * 4)
      var k = 0
      while (k < fanout - 1 && inners(base + k) < key) k += 1
      p = p * fanout + k
      l += 1
      val cap = if (l == depth) numLeafNodes else levelCounts(l)
      if (p >= cap) p = cap - 1
      if (l == mark) marked = p
    }
    (marked.toLong << 32) | p
  }

  /** Inclusive max key of the subtree under node `p` at `level`;
    * Int.MaxValue for the last node so range scans always terminate.
    */
  def subtreeUpperBound(level: Int, p: Int): Int = {
    if (depth == 0) return Int.MaxValue
    val span = ImmutableBPlusTree.leafSpan(fanout, depth - level)
    val endElem = (p + 1).toLong * span * leafNodeSize
    if (endElem >= leaves.length) Int.MaxValue
    else Elem.key(leaves(endElem.toInt - 1))
  }

  /** Approximate heap bytes (Fig. 11a footprint bench). */
  def memoryBytes: Long = leaves.length.toLong * 8 + inners.length.toLong * 4
}

object ImmutableBPlusTree {
  /** Default inner fan-out; the paper's shifting-Gaussian setup quotes
    * f_ib = 32.
    */
  val DefaultFanout = 32

  /** Default elements per leaf node. */
  val DefaultLeafNodeSize = 32

  /** Leaf nodes under one node `levels` inner levels above them: fanout^levels. */
  private def leafSpan(fanout: Int, levels: Int): Int = {
    var s = 1
    var l = 0
    while (l < levels) { s *= fanout; l += 1 }
    s
  }

  /** Build from a key-sorted packed element array (Algorithm 3 — expressed
    * directly via subtree maxima, which yields the identical key layout).
    * Cost is O(n), matching Equation 7.
    */
  def build(
      sorted: Array[Long],
      fanout: Int = DefaultFanout,
      leafNodeSize: Int = DefaultLeafNodeSize,
  ): ImmutableBPlusTree = {
    require(fanout >= 2 && leafNodeSize >= 1)
    val len          = sorted.length
    val numLeafNodes = (len + leafNodeSize - 1) / leafNodeSize

    // level sizes bottom-up until a single root
    var counts = List.empty[Int]
    var c      = numLeafNodes
    while (c > 1) {
      c = (c + fanout - 1) / fanout
      counts = c :: counts
    }
    val levelCounts = counts.toArray // level 0 = root ... depth-1 = deepest
    val depth       = levelCounts.length

    val levelOffsets = new Array[Int](depth)
    var off          = 0
    var i            = 0
    while (i < depth) {
      levelOffsets(i) = off
      off += levelCounts(i) * fanout
      i += 1
    }

    val inners = new Array[Int](off)
    java.util.Arrays.fill(inners, Int.MaxValue)
    var level = 0
    while (level < depth) {
      // child span in leaf nodes for children of nodes at this level
      val childSpan = leafSpan(fanout, depth - level - 1)
      var p = 0
      while (p < levelCounts(level)) {
        var j = 0
        while (j < fanout) {
          val childIdx  = p * fanout + j
          val startLeaf = childIdx.toLong * childSpan
          if (startLeaf < numLeafNodes) {
            val endElem = math.min((childIdx + 1).toLong * childSpan * leafNodeSize, len.toLong)
            inners(levelOffsets(level) + p * fanout + j) = Elem.key(sorted(endElem.toInt - 1))
          }
          j += 1
        }
        p += 1
      }
      level += 1
    }
    Telemetry.store(len.toLong * 8 + off.toLong * 4)
    new ImmutableBPlusTree(sorted, inners, fanout, leafNodeSize, depth, levelCounts, levelOffsets)
  }

  /** The empty tree. */
  def empty(fanout: Int = DefaultFanout, leafNodeSize: Int = DefaultLeafNodeSize): ImmutableBPlusTree =
    build(Array.emptyLongArray, fanout, leafNodeSize)
}
