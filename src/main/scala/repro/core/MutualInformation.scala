package repro.core

/** A symbolic time series (Def. 3.7): the symbol at each fine-granularity
  * position, 1-based positions implied by index.
  */
final case class SymbolicSeries(id: String, symbols: Vector[String]) {
  require(symbols.nonEmpty, s"series $id is empty")
  def length: Int = symbols.size
  def alphabet: Vector[String] = symbols.distinct.sorted

  /** Empirical symbol probabilities p(x), counted once on first use. */
  lazy val distribution: Map[String, Double] = {
    val counts = new java.util.HashMap[String, Array[Long]]()
    val it = symbols.iterator
    while (it.hasNext) {
      val s = it.next()
      val c = counts.get(s)
      if (c == null) counts.put(s, Array(1L)) else c(0) += 1
    }
    val n = length.toDouble
    val b = Map.newBuilder[String, Double]
    counts.forEach((k, v) => b += (k -> v(0) / n))
    b.result()
  }
}

/** The symbolic database D_SYB (Def. 3.8): aligned symbolic series. */
final case class SymbolicDB(series: Vector[SymbolicSeries]) {
  require(series.nonEmpty, "empty symbolic database")
  require(series.forall(_.length == series.head.length),
    "all symbolic series must be aligned (same length)")
  def length: Int = series.head.length
  def ids: Vector[String] = series.map(_.id)
  def byId(id: String): SymbolicSeries = series.find(_.id == id)
    .getOrElse(throw new NoSuchElementException(s"no series $id"))
}

/** I(X;Y) in bits and both normalized directions I(X;Y)/H(X) and
  * I(X;Y)/H(Y) of one series pair (Eqs. 4–5).
  */
final case class PairInfo(mi: Double, nmiXY: Double, nmiYX: Double) {
  /** The value Def. 5.4 compares with μ. */
  def minNmi: Double = math.min(nmiXY, nmiYX)
}

/** Entropy / mutual information over symbolic series (Sec. V-A) and the
  * μ threshold of Corollary 1.1 (Eq. 14).
  */
object MutualInformation {
  private val Ln2 = math.log(2.0)
  private def log2(x: Double): Double = math.log(x) / Ln2

  /** Empirical symbol probabilities p(x), cached on the series. */
  def probs(x: SymbolicSeries): Map[String, Double] = x.distribution

  /** Empirical joint probabilities p(x, y) over aligned positions. */
  def jointProbs(x: SymbolicSeries, y: SymbolicSeries): Map[(String, String), Double] = {
    require(x.length == y.length, "series must be aligned")
    val counts = new java.util.HashMap[(String, String), Array[Long]]()
    var i = 0
    val n = x.length
    while (i < n) {
      val k = (x.symbols(i), y.symbols(i))
      val c = counts.get(k)
      if (c == null) counts.put(k, Array(1L)) else c(0) += 1
      i += 1
    }
    val b = Map.newBuilder[(String, String), Double]
    counts.forEach((k, v) => b += (k -> v(0) / n.toDouble))
    b.result()
  }

  private def entropyOf(p: Map[String, Double]): Double =
    -p.values.map(v => if (v > 0) v * log2(v) else 0.0).sum

  /** Shannon entropy H(X) in bits (Eq. 2). */
  def entropy(x: SymbolicSeries): Double = entropyOf(probs(x))

  /** Conditional entropy H(X|Y) in bits (Eq. 3). */
  def condEntropy(x: SymbolicSeries, y: SymbolicSeries): Double = {
    val py = probs(y)
    -jointProbs(x, y).map { case ((_, ys), pxy) =>
      if (pxy > 0) pxy * log2(pxy / py(ys)) else 0.0
    }.sum
  }

  /** The one MI formula: I(X;Y) (Eq. 4) from a joint table p(x, y) and its
    * marginals, normalized by H(X) and by H(Y) (Eq. 5). NMI is asymmetric;
    * a constant side (H = 0) carries no information to reduce → 0.
    */
  def pairInfo(joint: Map[(String, String), Double],
               px: Map[String, Double], py: Map[String, Double]): PairInfo = {
    val i = joint.map { case ((xs, ys), pxy) =>
      if (pxy > 0) pxy * log2(pxy / (px(xs) * py(ys))) else 0.0
    }.sum
    def normalized(h: Double) = if (h <= 0.0) 0.0 else math.max(0.0, i / h)
    PairInfo(i, normalized(entropyOf(px)), normalized(entropyOf(py)))
  }

  /** [[pairInfo]] of two aligned series: one joint table per pair, the
    * marginals read from each series' cached distribution.
    */
  def pairInfo(x: SymbolicSeries, y: SymbolicSeries): PairInfo =
    pairInfo(jointProbs(x, y), probs(x), probs(y))

  /** [[pairInfo]] from joint symbol counts (x, y) → n, e.g. aggregated by
    * Spark SQL; the marginals are the table's row and column sums.
    */
  def pairInfoFromCounts(counts: Iterable[((String, String), Long)]): PairInfo = {
    val total = counts.iterator.map(_._2).sum.toDouble
    val joint = counts.iterator.map { case (xy, c) => xy -> c / total }.toMap
    pairInfo(joint,
      joint.groupMapReduce(_._1._1)(_._2)(_ + _),
      joint.groupMapReduce(_._1._2)(_._2)(_ + _))
  }

  /** Mutual information I(X;Y) in bits (Eq. 4). */
  def mi(x: SymbolicSeries, y: SymbolicSeries): Double = pairInfo(x, y).mi

  /** Normalized mutual information I(X;Y)/H(X) (Eq. 5). A constant X is 0
    * whatever Y is, so no joint table is built for it; misaligned series
    * still reach [[jointProbs]], which rejects them.
    */
  def nmi(x: SymbolicSeries, y: SymbolicSeries): Double =
    if (x.length == y.length && entropy(x) <= 0.0) 0.0 else pairInfo(x, y).nmiXY

  /** μ for one event pair (X1 ∈ X_S, Y1 ∈ Y_S) (Eq. 14, appendix form):
    * λ1 = min symbol probability of X_S, λ2 = p(Y1).
    *
    *   ρ = minSeason · minDensity / (λ2 · |D_SEQ|)
    *   μ = 1 − λ2 / (e · ln2 · log2(1/λ1))          if ρ ≤ 1/e
    *   μ = 1 − ρ · λ2 · log2(ρ) / (ln2 · log2(λ1))  otherwise
    *
    * May exceed 1 when the pair can never reach minSeason seasons (then no
    * NMI passes — the pair is pruned outright).
    */
  def muForEventPair(lambda1: Double, lambda2: Double,
                     dseqSize: Int, minSeason: Int, minDensity: Int): Double = {
    require(lambda1 > 0 && lambda1 <= 1, s"bad lambda1=$lambda1")
    require(lambda2 > 0 && lambda2 <= 1, s"bad lambda2=$lambda2")
    if (lambda1 >= 1.0) {
      // Degenerate single-symbol X: log2(1/λ1) = 0; no uncertainty to
      // reduce — demand the impossible so the pair is pruned.
      Double.PositiveInfinity
    } else {
      val rho = minSeason.toDouble * minDensity / (lambda2 * dseqSize)
      if (rho <= 1.0 / math.E)
        1.0 - lambda2 / (math.E * Ln2 * log2(1.0 / lambda1))
      else
        1.0 - rho * lambda2 * log2(rho) / (Ln2 * log2(lambda1))
    }
  }

  /** μ for a series pair: the minimum over all event pairs in both NMI
    * directions (Sec. V-B "Setting the parameters").
    */
  def muForSeriesPair(x: SymbolicSeries, y: SymbolicSeries,
                      dseqSize: Int, minSeason: Int, minDensity: Int): Double = {
    def dir(a: SymbolicSeries, b: SymbolicSeries): Double = {
      val l1 = probs(a).values.min
      probs(b).values.map(l2 =>
        muForEventPair(l1, l2, dseqSize, minSeason, minDensity)).min
    }
    math.min(dir(x, y), dir(y, x))
  }

  /** Theorem 1 lower bound on maxSeason(X1, Y1) (Eq. 6), via Lambert W0.
    * Returns None when the W argument falls below −1/e (bound undefined).
    */
  def maxSeasonLowerBound(lambda1: Double, lambda2: Double, mu: Double,
                          dseqSize: Int, minDensity: Int): Option[Double] = {
    val z = log2(math.pow(lambda1, 1.0 - mu)) * Ln2 / lambda2
    if (z < -1.0 / math.E) None
    else Some(lambda2 * dseqSize / minDensity.toDouble * math.exp(LambertW.w0(z)))
  }

  /** Correlation test (Def. 5.4): min of both NMI directions >= μ. */
  def correlated(x: SymbolicSeries, y: SymbolicSeries, mu: Double): Boolean =
    pairInfo(x, y).minNmi >= mu
}
