package repro.core

import scala.collection.mutable
import repro.core.Relations.RelCfg

/** Full E-STPM configuration (Algorithm 1 + Table III knobs).
  *
  * The pruning flags realize the ablation of Sec. VI-C3: `apriori` toggles
  * the maxSeason candidate filter (Lemmas 1–2), `transitivity` toggles the
  * FilteredF1 / iterative 2-pattern-existence check (Lemmas 3–4). All four
  * combinations return the same frequent patterns (both prunings are sound);
  * they differ in work done.
  */
final case class STPMConfig(
    season: SeasonCfg,
    rel: RelCfg = RelCfg(),
    maxK: Int = 3,
    apriori: Boolean = true,
    transitivity: Boolean = true) {
  require(maxK >= 1, "maxK must be >= 1")
}

/** A mined frequent seasonal temporal pattern with its evidence. */
final case class FrequentPattern(
    key: PatternKey,
    support: Vector[Int],
    seasons: Vector[NearSupport]) {
  def k: Int = key.k
  def seasonCount(cfg: SeasonCfg): Int = Seasonality.seasonCount(seasons, cfg)
}

/** Work counters — runtime- and machine-independent effort measures used by
  * the benches alongside wall-clock time.
  */
final class MiningStats {
  var totalEvents: Int = 0
  var candidateEvents: Int = 0
  val candidateGroups: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  val candidatePatterns: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  var relationChecks: Long = 0L
  /** Occurrence tuples kept (every relation of the tuple passed). */
  var occurrences: Long = 0L
  var peakEntries: Long = 0L

  def noteEntries(n: Long): Unit = if (n > peakEntries) peakEntries = n
  override def toString: String =
    s"events=$candidateEvents/$totalEvents groups=${candidateGroups.toMap} " +
      s"patterns=${candidatePatterns.toMap} relChecks=$relationChecks " +
      s"occurrences=$occurrences peakEntries=$peakEntries"
}

final case class MiningResult(frequent: Vector[FrequentPattern], stats: MiningStats) {
  def frequentOfSize(k: Int): Vector[FrequentPattern] = frequent.filter(_.k == k)
  def keys: Set[PatternKey] = frequent.iterator.map(_.key).toSet
}

/** Result of mining one k-event group: its support set, candidate-or-not
  * patterns with their supports, occurrence tuples per (pattern, granule),
  * the relation checks spent and the occurrence tuples kept. Serializable —
  * level-2 instances of this travel back from Spark executors (see
  * [[repro.core.SparkSTPM]]).
  */
final case class GroupMined(
    group: Vector[Event],
    sup: Vector[Int],
    patterns: Vector[(PatternKey, Vector[Int])],
    occs: Map[(PatternKey, Int), Vector[Vector[Instance]]],
    checks: Long,
    tuples: Long)

/** The exact Seasonal Temporal Pattern Mining algorithm (Algorithm 1). */
object STPM {

  /** Pluggable execution of the level-2 workload: given the database, the
    * config and the admitted (e0, e1, support) pair list, return each
    * group's mining result *in input order*. The default runs inline; the
    * Spark variant fans the list out with `mapPartitions`.
    */
  private[repro] type Level2Exec =
    (SeqDB, STPMConfig, Vector[(Event, Event, Vector[Int])]) => Vector[GroupMined]

  /** Mine all frequent seasonal temporal patterns of length <= cfg.maxK. */
  def mine(db: SeqDB, cfg: STPMConfig): MiningResult =
    mineFiltered(db, cfg, seriesFilter = None, pairFilter = None)

  /** Mining with optional restrictions, used by A-STPM (Algorithm 2):
    * `seriesFilter` drops whole time series before single-event mining;
    * `pairFilter` restricts 2-event groups to admitted series pairs.
    * Levels k >= 3 always proceed exactly on whatever level 2 produced.
    */
  private[repro] def mineFiltered(
      db: SeqDB,
      cfg: STPMConfig,
      seriesFilter: Option[String => Boolean],
      pairFilter: Option[(String, String) => Boolean],
      level2Exec: Option[Level2Exec] = None): MiningResult = {
    val stats = new MiningStats
    val frequent = Vector.newBuilder[FrequentPattern]

    // Step 2.1 — frequent seasonal single events (Alg. 1 lines 1–9).
    stats.totalEvents = db.allEvents.size
    val hlh1 = HLH1.build(db, cfg.season, cfg.apriori)
    for (f <- seriesFilter; e <- hlh1.eh.keysIterator.toVector if !f(e.series)) {
      hlh1.eh.remove(e); hlh1.gh.remove(e)
    }
    stats.candidateEvents = hlh1.eh.size
    for ((e, sup) <- hlh1.eh; seasons <- Seasonality.frequentSeasons(sup, cfg.season))
      frequent += FrequentPattern(PatternKey.single(e), sup, seasons)
    stats.noteEntries(hlh1.entryCount)

    // Step 2.2 — frequent seasonal k-event patterns (Alg. 1 lines 10–23).
    var prev: Option[HLHk] = None
    var k = 2
    var exhausted = false
    while (k <= cfg.maxK && !exhausted) {
      // The pair filter applies at level 2 only — A-STPM mines k >= 3
      // exactly (Alg. 2 lines 9–10).
      val hlhk = mineLevel(db, hlh1, prev, k, cfg, stats,
        pairFilter = if (k == 2) pairFilter else None,
        level2Exec = level2Exec)
      stats.candidateGroups.update(k, hlhk.ehk.size)
      stats.candidatePatterns.update(k, hlhk.phk.size)
      stats.noteEntries(hlh1.entryCount + prev.map(_.entryCount).getOrElse(0L) + hlhk.entryCount)
      for ((p, sup) <- hlhk.phk; seasons <- Seasonality.frequentSeasons(sup, cfg.season))
        frequent += FrequentPattern(p, sup, seasons)
      exhausted = hlhk.phk.isEmpty
      prev = Some(hlhk)
      k += 1
    }
    MiningResult(frequent.result(), stats)
  }

  /** Mine one HLH level: candidate k-event groups (Sec. 4.1) and candidate
    * k-event patterns (Sec. 4.2).
    */
  private[core] def mineLevel(
      db: SeqDB,
      hlh1: HLH1,
      prevOpt: Option[HLHk],
      k: Int,
      cfg: STPMConfig,
      stats: MiningStats,
      pairFilter: Option[(String, String) => Boolean],
      level2Exec: Option[Level2Exec] = None): HLHk = {
    require((k == 2) == prevOpt.isEmpty, "level k>2 requires the previous level")
    val hlhk = new HLHk(k)
    val f1 = hlh1.candidates

    val mined: Iterator[GroupMined] = if (k == 2) {
      // Cartesian F1 x F1 as canonical sorted pairs (self-pairs admitted —
      // the search-space derivation counts P(n,2)+n groups).
      val admitted = (for {
        i <- f1.indices.iterator
        j <- (i until f1.size).iterator
        e0 = f1(i); e1 = f1(j)
        if pairFilter.forall(f => f(e0.series, e1.series))
        sup = intersectSorted(hlh1.support(e0), hlh1.support(e1))
        if groupAdmitted(sup, cfg)
      } yield (e0, e1, sup)).toVector
      level2Exec match {
        case Some(exec) => exec(db, cfg, admitted).iterator
        case None => admitted.iterator.map { case (a, b, s) => minePairData(hlh1, a, b, s, cfg) }
      }
    } else {
      val prev = prevOpt.get
      // Transitivity pruning (Lemma 4): only events appearing in
      // *candidate* (k-1)-patterns may extend a group.
      val filteredF1 =
        if (cfg.transitivity) {
          val pe = prev.patternEvents(cfg.season)
          f1.filter(pe.contains)
        } else f1
      for {
        (group, entry) <- prev.ehk.iterator
        ek <- filteredF1.iterator
        if Event.ordering.gteq(ek, group.last) // canonical extension only
        sup = intersectSorted(entry.support, hlh1.support(ek))
        if groupAdmitted(sup, cfg)
      } yield extendGroupData(hlh1, prev, group, entry, ek, sup, cfg)
    }
    for (gm <- mined) {
      stats.relationChecks += gm.checks
      stats.occurrences += gm.tuples
      commit(hlhk, gm, cfg)
    }
    hlhk
  }

  /** Candidate k-event group test: maxSeason >= minSeason when Apriori-like
    * pruning is on (Sec. IV-B); otherwise only non-emptiness.
    */
  private def groupAdmitted(sup: Vector[Int], cfg: STPMConfig): Boolean =
    if (cfg.apriori) Seasonality.isCandidate(sup.size, cfg.season) else sup.nonEmpty

  /** Mine candidate 2-event patterns of group (e0, e1) (Sec. 4.2.1) into a
    * serializable result. Pure w.r.t. its inputs — safe on executors.
    */
  private[repro] def minePairData(
      hlh1: HLH1,
      e0: Event, e1: Event,
      sup: Vector[Int],
      cfg: STPMConfig): GroupMined = {
    val perPattern = mutable.LinkedHashMap.empty[PatternKey, mutable.ArrayBuffer[Int]]
    val occ = mutable.HashMap.empty[(PatternKey, Int), mutable.ArrayBuffer[Vector[Instance]]]
    val self = e0 == e1
    var checks = 0L
    var tuples = 0L
    for (g <- sup) {
      val as = hlh1.instancesAt(e0, g)
      val bs = hlh1.instancesAt(e1, g)
      for {
        a <- as
        b <- bs
        if a != b
        // For self-pairs enumerate unordered instance pairs once.
        if !self || Instance.ordering.lt(a, b)
      } {
        checks += 1
        val (first, _, rel) = Relations.orientAndRelate(a, b, cfg.rel)
        // For self-pairs the two slots are interchangeable — the flag
        // carries no information and is canonicalized to true.
        val key = PatternKey(Vector(e0, e1), Vector((rel, self || first == a)))
        val s = perPattern.getOrElseUpdate(key, mutable.ArrayBuffer.empty)
        if (s.isEmpty || s.last != g) s += g
        occ.getOrElseUpdate((key, g), mutable.ArrayBuffer.empty) += Vector(a, b)
        tuples += 1
      }
    }
    GroupMined(Vector(e0, e1), sup,
      perPattern.iterator.map { case (p, s) => (p, s.toVector) }.toVector,
      occ.iterator.map { case (k, v) => (k, v.toVector) }.toMap,
      checks, tuples)
  }

  /** Extend every candidate (k-1)-pattern of `group` with instances of `ek`
    * (Sec. 4.2.2): for each granule in the group's support, each stored
    * occurrence grows by one instance; the new slot-pair relations are
    * appended, iteratively checked against candidate 2-patterns when
    * transitivity pruning is on.
    */
  private def extendGroupData(
      hlh1: HLH1,
      prev: HLHk,
      group: Vector[Event],
      entry: GroupEntry,
      ek: Event,
      sup: Vector[Int],
      cfg: STPMConfig): GroupMined = {
    val newGroup = group :+ ek
    val perPattern = mutable.LinkedHashMap.empty[PatternKey, mutable.ArrayBuffer[Int]]
    val occ = mutable.HashMap.empty[(PatternKey, Int), mutable.ArrayBuffer[Vector[Instance]]]
    val dupOfLast = ek == group.last
    var checks = 0L
    var tuples = 0L
    for (g <- sup; p <- entry.patterns) {
      val pSup = prev.support(p)
      if (containsSorted(pSup, g)) {
        val parents = prev.occurrencesAt(p, g)
        val eks = hlh1.instancesAt(ek, g)
        for {
          parent <- parents
          ei <- eks
          if !parent.contains(ei)
          // For a duplicated trailing event keep instance tuples canonical
          // (ascending) so each unordered combination appears once.
          if !dupOfLast || Instance.ordering.lt(parent.last, ei)
        } {
          val newRels = Vector.newBuilder[(Rel, Boolean)]
          var ok = true
          var s = 0
          while (ok && s < parent.size) {
            checks += 1
            val a = parent(s)
            val (first, second, rel) = Relations.orientAndRelate(a, ei, cfg.rel)
            ok = !cfg.transitivity ||
              pairIsCandidate(newGroup.size, prev, hlh1, first, second, rel, cfg)
            // Same-event slot pairs canonicalize to flag = true (relations
            // are between events; instance order carries no identity).
            newRels += ((rel, a.event == ei.event || first == a))
            s += 1
          }
          if (ok) {
            val key = PatternKey(newGroup, p.rels ++ newRels.result())
            val supBuf = perPattern.getOrElseUpdate(key, mutable.ArrayBuffer.empty)
            if (supBuf.isEmpty || supBuf.last != g) supBuf += g
            occ.getOrElseUpdate((key, g), mutable.ArrayBuffer.empty) += (parent :+ ei)
            tuples += 1
          }
        }
      }
    }
    GroupMined(newGroup, sup,
      perPattern.iterator.map { case (p, s) => (p, s.toVector) }.toVector,
      occ.iterator.map { case (k, v) => (k, v.toVector) }.toMap,
      checks, tuples)
  }

  /** Iterative check (Sec. 4.2.2): the oriented triple (rel, first, second)
    * must exist as a candidate 2-event pattern. At level 3 the previous
    * level *is* level 2; beyond that we conservatively re-derive the pair's
    * support from HLH1 and test maxSeason — sound for any k.
    */
  private def pairIsCandidate(
      k: Int,
      prev: HLHk,
      hlh1: HLH1,
      first: Instance, second: Instance, rel: Rel,
      cfg: STPMConfig): Boolean = {
    val (e0, e1) = if (Event.ordering.lteq(first.event, second.event))
      (first.event, second.event) else (second.event, first.event)
    if (k == 3) {
      // Orientation flag: which slot held the chronologically first
      // instance; self-pairs are always stored with flag = true. The
      // triple must exist as a *candidate* 2-pattern — under apriori = off
      // phk is unfiltered, so candidacy is re-checked on its support.
      val flag = first.event == second.event || first.event == e0
      val key = PatternKey(Vector(e0, e1), Vector((rel, flag)))
      prev.phk.get(key).exists(sup => Seasonality.isCandidate(sup.size, cfg.season))
    } else {
      // Deeper levels: group-level candidate test (cheaper, still sound).
      val sup = intersectSorted(hlh1.support(e0), hlh1.support(e1))
      Seasonality.isCandidate(sup.size, cfg.season)
    }
  }

  /** Store a mined group into HLH_k, applying the maxSeason filter on its
    * patterns (Apriori-like pruning).
    */
  private[repro] def commit(hlhk: HLHk, gm: GroupMined, cfg: STPMConfig): Unit = {
    val byKey = gm.patterns.toMap
    val kept = gm.patterns.iterator.filter { case (_, s) =>
      if (cfg.apriori) Seasonality.isCandidate(s.size, cfg.season) else s.nonEmpty
    }.map(_._1).toVector
    if (kept.nonEmpty) {
      hlhk.ehk.update(gm.group, GroupEntry(gm.sup, kept))
      for (p <- kept) {
        hlhk.phk.update(p, byKey(p))
        for (g <- byKey(p))
          hlhk.ghk.update((p, g), gm.occs((p, g)))
      }
    }
  }

  /** Merge-intersection of two sorted granule vectors. */
  private[repro] def intersectSorted(a: Vector[Int], b: Vector[Int]): Vector[Int] = {
    val out = Vector.newBuilder[Int]
    var i = 0; var j = 0
    while (i < a.size && j < b.size) {
      val x = a(i); val y = b(j)
      if (x == y) { out += x; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    out.result()
  }

  private[repro] def containsSorted(v: Vector[Int], x: Int): Boolean = {
    var lo = 0; var hi = v.size - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val m = v(mid)
      if (m == x) return true
      else if (m < x) lo = mid + 1
      else hi = mid - 1
    }
    false
  }
}
