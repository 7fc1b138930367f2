package repro.index

import repro.core.{Elem, LongVec, Telemetry}

/** Classic mutable in-memory B+-Tree with explicit child references — the
  * reproduction of the paper's STX-B+-Tree substrate [26].
  *
  * Keys are any Ints and may repeat (streaming keys collide);
  * values are sliding-window references (Ints). Leaves are chained for
  * range scans. Routing goes left on key equality for searches (so a range
  * scan starting at `lo` finds duplicates that straddle a split) and right
  * on equality for inserts (new duplicates land after existing ones).
  *
  * Deletion is by exact (key, ref) pair — the window join deletes the one
  * expired tuple. Structural shrinking is lazy: emptied leaves stay linked
  * (they are skipped in O(1) during scans); under the stationary key
  * distributions the paper's B+-Tree baseline is evaluated with, leaf
  * occupancy is statistically stable, matching STX behaviour closely
  * enough for cost-shape comparisons.
  *
  * Not thread-safe — concurrent variants in this repo wrap trees in
  * partition locks (PIM-Tree) or per-core ownership (round-robin join).
  */
final class BPlusTree(val fanout: Int = 16) {
  require(fanout >= 4, s"fanout must be >= 4, got $fanout")

  private val leafCap  = fanout
  private val innerCap = fanout // max children per inner node

  import BPlusTree.{Inner, Leaf}

  private var root: AnyRef  = new Leaf(leafCap)
  private val firstLeaf     = root.asInstanceOf[Leaf]
  private var count         = 0
  private var treeHeight    = 1 // number of levels including leaf level

  /** Number of (key, ref) entries currently stored. */
  def size: Int = count

  /** Number of levels, leaves included (a lone leaf has height 1). */
  def height: Int = treeHeight

  // ---------------------------------------------------------------- insert

  /** Insert one (key, ref) entry. O(height · fanout). */
  def insert(key: Int, ref: Int): Unit = {
    val split = insertInto(root, key, ref)
    if (split != null) {
      val newRoot = new Inner(innerCap)
      newRoot.children(0) = root
      newRoot.children(1) = split._2
      newRoot.keys(0) = split._1
      newRoot.size = 2
      root = newRoot
      treeHeight += 1
    }
    count += 1
  }

  /** Returns (separatorKey, newRightSibling) if the child split, else null. */
  private def insertInto(node: AnyRef, key: Int, ref: Int): (Int, AnyRef) = node match {
    case leaf: Leaf =>
      Telemetry.load(leafCap.toLong * 8)
      // position after all entries with keys <= key (insert right on equality)
      var i = leaf.size
      while (i > 0 && leaf.keys(i - 1) > key) i -= 1
      if (leaf.size < leafCap) {
        System.arraycopy(leaf.keys, i, leaf.keys, i + 1, leaf.size - i)
        System.arraycopy(leaf.refs, i, leaf.refs, i + 1, leaf.size - i)
        leaf.keys(i) = key; leaf.refs(i) = ref
        leaf.size += 1
        Telemetry.store(8)
        null
      } else {
        // split: left keeps first half, right takes the rest
        val right = new Leaf(leafCap)
        val mid   = leafCap / 2
        System.arraycopy(leaf.keys, mid, right.keys, 0, leafCap - mid)
        System.arraycopy(leaf.refs, mid, right.refs, 0, leafCap - mid)
        right.size = leafCap - mid
        leaf.size  = mid
        right.next = leaf.next
        leaf.next  = right
        Telemetry.store(leafCap.toLong * 8)
        if (i <= mid) insertIntoLeafRaw(leaf, i, key, ref)
        else insertIntoLeafRaw(right, i - mid, key, ref)
        (right.keys(0), right)
      }
    case inner: Inner =>
      Telemetry.load(innerCap.toLong * 4)
      // child index: first separator strictly greater than key (equal -> right)
      var i = 0
      while (i < inner.size - 1 && key >= inner.keys(i)) i += 1
      val split = insertInto(inner.children(i), key, ref)
      if (split == null) null
      else {
        val (sepKey, newChild) = split
        if (inner.size < innerCap) {
          System.arraycopy(inner.keys, i, inner.keys, i + 1, inner.size - 1 - i)
          System.arraycopy(inner.children, i + 1, inner.children, i + 2, inner.size - 1 - i)
          inner.keys(i) = sepKey
          inner.children(i + 1) = newChild
          inner.size += 1
          null
        } else {
          // split inner: promote the middle separator
          val tmpKeys  = new Array[Int](innerCap)
          val tmpKids  = new Array[AnyRef](innerCap + 1)
          System.arraycopy(inner.keys, 0, tmpKeys, 0, i)
          tmpKeys(i) = sepKey
          System.arraycopy(inner.keys, i, tmpKeys, i + 1, innerCap - 1 - i)
          System.arraycopy(inner.children, 0, tmpKids, 0, i + 1)
          tmpKids(i + 1) = newChild
          System.arraycopy(inner.children, i + 1, tmpKids, i + 2, innerCap - 1 - i)

          val mid     = innerCap / 2 // children in left node
          val promote = tmpKeys(mid - 1)
          val right   = new Inner(innerCap)
          right.size = innerCap + 1 - mid
          System.arraycopy(tmpKids, mid, right.children, 0, right.size)
          System.arraycopy(tmpKeys, mid, right.keys, 0, right.size - 1)
          inner.size = mid
          java.util.Arrays.fill(inner.children, mid, innerCap, null)
          System.arraycopy(tmpKeys, 0, inner.keys, 0, mid - 1)
          System.arraycopy(tmpKids, 0, inner.children, 0, mid)
          (promote, right)
        }
      }
  }

  private def insertIntoLeafRaw(leaf: Leaf, i: Int, key: Int, ref: Int): Unit = {
    System.arraycopy(leaf.keys, i, leaf.keys, i + 1, leaf.size - i)
    System.arraycopy(leaf.refs, i, leaf.refs, i + 1, leaf.size - i)
    leaf.keys(i) = key; leaf.refs(i) = ref
    leaf.size += 1
  }

  // ---------------------------------------------------------------- delete

  /** Delete the entry with exactly this (key, ref); false if absent. */
  def delete(key: Int, ref: Int): Boolean = {
    var leaf = findLeafForSearch(key)
    // scan forward through the duplicate run for the matching ref
    while (leaf != null) {
      Telemetry.load(leaf.size.toLong * 8)
      var i = 0
      while (i < leaf.size) {
        val k = leaf.keys(i)
        if (k > key) return false
        if (k == key && leaf.refs(i) == ref) {
          System.arraycopy(leaf.keys, i + 1, leaf.keys, i, leaf.size - i - 1)
          System.arraycopy(leaf.refs, i + 1, leaf.refs, i, leaf.size - i - 1)
          leaf.size -= 1
          count -= 1
          Telemetry.store(8)
          return true
        }
        i += 1
      }
      leaf = leaf.next
    }
    false
  }

  // ---------------------------------------------------------------- search

  /** Leaf that may contain the first entry with key >= target (search goes
    * left on separator equality so straddling duplicates are not skipped).
    */
  private def findLeafForSearch(key: Int): Leaf = {
    var node = root
    while (node.isInstanceOf[Inner]) {
      val inner = node.asInstanceOf[Inner]
      Telemetry.load(innerCap.toLong * 4)
      var i = 0
      while (i < inner.size - 1 && key > inner.keys(i)) i += 1
      node = inner.children(i)
    }
    node.asInstanceOf[Leaf]
  }

  /** Append every entry with lo <= key <= hi to `out` (packed, in key
    * order). O(height + matches).
    */
  def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = {
    var leaf = findLeafForSearch(lo)
    var done = false
    while (leaf != null && !done) {
      Telemetry.load(leaf.size.toLong * 8)
      var i = 0
      while (i < leaf.size && !done) {
        val k = leaf.keys(i)
        if (k > hi) done = true
        else if (k >= lo) out.add(Elem.pack(k, leaf.refs(i)))
        i += 1
      }
      if (!done) leaf = leaf.next
    }
  }

  /** Visit all entries in key order (used by merge operations). */
  def foreachElement(f: Long => Unit): Unit = {
    var leaf = firstLeaf
    while (leaf != null) {
      var i = 0
      while (i < leaf.size) { f(Elem.pack(leaf.keys(i), leaf.refs(i))); i += 1 }
      leaf = leaf.next
    }
  }

  /** All entries in key order as a packed array (merge input). */
  def toSortedArray: Array[Long] = {
    val out = new Array[Long](count)
    var n   = 0
    foreachElement { e => out(n) = e; n += 1 }
    out
  }

  /** Approximate heap bytes of the structure (Fig. 11a footprint bench). */
  def memoryBytes: Long = {
    var leaves = 0L
    var leaf   = firstLeaf
    while (leaf != null) { leaves += 1; leaf = leaf.next }
    var inners = 0L
    def walk(node: AnyRef): Unit = node match {
      case inner: Inner =>
        inners += 1
        var i = 0
        while (i < inner.size) { walk(inner.children(i)); i += 1 }
      case _ =>
    }
    walk(root)
    // leaf: keys + refs arrays + next ref + header; inner: keys + child refs
    leaves * (leafCap.toLong * 8 + 32) + inners * (innerCap.toLong * 12 + 32)
  }
}

object BPlusTree {
  private final class Leaf(cap: Int) {
    val keys = new Array[Int](cap)
    val refs = new Array[Int](cap)
    var size = 0
    var next: Leaf = _
  }

  private final class Inner(cap: Int) {
    val keys     = new Array[Int](cap - 1) // separators
    val children = new Array[AnyRef](cap)
    var size     = 0 // number of children
  }
}
