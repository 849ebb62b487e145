package repro.index

/** The hierarchical tree index `I` (paper §V-B).
  *
  * Leaf nodes hold vertices with their per-radius pre-computed data
  * (`BV_r`, `ub_sup_r`, σ_z grid); non-leaf entries hold the bit-OR / max
  * aggregates of their subtrees, per radius. Vertices are sorted by the
  * average of their support and influence bounds (paper §V-B "Index
  * Construction") and recursively divided into equal-size partitions of
  * fanout γ, so high-influence vertices cluster under the same entries and
  * the best-first traversal (Alg. 3) can terminate early.
  */
object TreeIndex {

  /** Aggregates of one subtree (or one vertex), indexed per radius:
    * `bv(r-1)`, `ubSup(r-1)`, `sigmas(r-1)(z)`.
    */
  final case class Agg(bv: Array[Long], ubSup: Array[Int], sigmas: Array[Array[Double]]) {
    def rMax: Int = bv.length
  }

  sealed trait Node {
    def agg: Agg

    /** Number of vertices (r-hop candidates) in this subtree — the unit the
      * Fig.-4 ablation counts when an entry or the remaining heap is pruned.
      */
    def size: Int
  }

  /** One vertex with its per-radius data (`v.R`), as [[Precompute]] emits it. */
  final case class VertexRef(id: Int, agg: Agg)

  final case class Leaf(agg: Agg, vertices: Array[VertexRef]) extends Node {
    val size: Int = vertices.length
  }
  final case class Inner(agg: Agg, children: Array[Node]) extends Node {
    val size: Int = children.map(_.size).sum
  }

  /** Bit-OR / max merge of child aggregates. */
  def combine(aggs: Iterable[Agg]): Agg = {
    val rMax = aggs.head.rMax
    val nz = aggs.head.sigmas(0).length
    val bv = new Array[Long](rMax)
    val ub = new Array[Int](rMax)
    val sg = Array.fill(rMax, nz)(0.0)
    aggs.foreach { a =>
      var r = 0
      while (r < rMax) {
        bv(r) |= a.bv(r)
        if (a.ubSup(r) > ub(r)) ub(r) = a.ubSup(r)
        var z = 0
        while (z < nz) { if (a.sigmas(r)(z) > sg(r)(z)) sg(r)(z) = a.sigmas(r)(z); z += 1 }
        r += 1
      }
    }
    Agg(bv, ub, sg)
  }

  /** Build the index over the vertices' `v.R`, fanout γ ≥ 2; every ref
    * must carry the same number of radii.
    */
  def build(refs: Array[VertexRef], fanout: Int = 32): Node = {
    require(fanout >= 2, s"fanout must be >= 2, got $fanout")
    require(refs.nonEmpty, "empty precompute output")
    val rMax = refs.head.agg.rMax
    refs.foreach(v => require(v.agg.rMax == rMax, s"vertex ${v.id} has ${v.agg.rMax} radii, not $rMax"))
    // Sort key (paper: "average of ub_sup_r and σ_z"): mean of the σ grid
    // plus mean support bound — clusters high-bound vertices together.
    def sortKey(v: VertexRef): Double = {
      val meanSigma = v.agg.sigmas.map(_.sum / v.agg.sigmas(0).length).sum / rMax
      val meanSup = v.agg.ubSup.sum.toDouble / rMax
      (meanSigma + meanSup) / 2.0
    }
    val ordered = refs.sortBy(v => (-sortKey(v), v.id))
    var level: Array[Node] = ordered
      .grouped(fanout)
      .map(vs => Leaf(combine(vs.map(_.agg)), vs))
      .toArray
    while (level.length > 1) {
      level = level
        .grouped(fanout)
        .map(ns => Inner(combine(ns.map(_.agg)), ns): Node)
        .toArray
    }
    level(0)
  }

  /** All vertex refs under a node (tests / diagnostics). */
  def vertices(node: Node): Iterator[VertexRef] = node match {
    case Leaf(_, vs) => vs.iterator
    case Inner(_, cs) => cs.iterator.flatMap(vertices)
  }

  def height(node: Node): Int = node match {
    case _: Leaf => 1
    case Inner(_, cs) => 1 + cs.map(height).max
  }
}
