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
  * the benches alongside wall-clock time. `peakEntries` counts the HLH
  * entries of HLH1 and level 2 plus those of the largest level-2 group's
  * subtree.
  */
final class MiningStats extends Serializable {
  var totalEvents: Int = 0
  var candidateEvents: Int = 0
  val candidateGroups: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  val candidatePatterns: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  var relationChecks: Long = 0L
  /** Occurrence tuples kept (every relation of the tuple passed). */
  var occurrences: Long = 0L
  var peakEntries: Long = 0L

  /** Add a mined group's checks and kept tuples. */
  def tally(gm: GroupMined): GroupMined = { relationChecks += gm.checks; occurrences += gm.tuples; gm }
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
  * the relation checks spent and the occurrence tuples kept.
  */
final case class GroupMined(
    group: Vector[Event],
    sup: Vector[Int],
    patterns: Vector[(PatternKey, Vector[Int])],
    occs: Map[(PatternKey, Int), Vector[Vector[Instance]]],
    checks: Long,
    tuples: Long)

/** What the subtree of every level-2 group reads besides that group's own
  * occurrences: HLH1, the level-2 pattern table `phk2` of the iterative
  * check, and FilteredF1. Serializable — the Spark path broadcasts it.
  */
private[repro] final case class SubtreeInputs(
    hlh1: HLH1, phk2: Map[PatternKey, Vector[Int]], filteredF1: Vector[Event], cfg: STPMConfig)

/** The exact Seasonal Temporal Pattern Mining algorithm (Algorithm 1).
  *
  * Levels 1 and 2 are mined over the whole database. Each k-event group,
  * k >= 3, grows from one (k-1)-group, its canonical prefix, so the rest
  * splits into one independent subtree per level-2 group; the local path
  * and Spark tasks both mine them with [[mineSubtree]].
  */
object STPM {

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
      pairFilter: Option[(String, String) => Boolean]): MiningResult = {
    val (top, in, level2) = mineTop(db, cfg, seriesFilter, pairFilter)
    merge(top, level2.groups.iterator.map(root => mineSubtree(in, level2, root)))
  }

  /** Levels 1 and 2 (Alg. 1 lines 1–9, then lines 10–23 for k = 2): their
    * frequent patterns and counters, what every subtree reads, and HLH_2,
    * whose groups are the subtree roots.
    */
  private[repro] def mineTop(
      db: SeqDB,
      cfg: STPMConfig,
      seriesFilter: Option[String => Boolean],
      pairFilter: Option[(String, String) => Boolean]): (MiningResult, SubtreeInputs, HLHk) = {
    val stats = new MiningStats
    val frequent = Vector.newBuilder[FrequentPattern]
    stats.totalEvents = db.allEvents.size
    val hlh1 = HLH1.build(db, cfg.season, cfg.apriori)
    for (f <- seriesFilter; e <- hlh1.eh.keysIterator.toVector if !f(e.series)) {
      hlh1.eh.remove(e); hlh1.gh.remove(e)
    }
    stats.candidateEvents = hlh1.eh.size
    for ((e, sup) <- hlh1.eh; seasons <- Seasonality.frequentSeasons(sup, cfg.season))
      frequent += FrequentPattern(PatternKey.single(e), sup, seasons)

    val f1 = hlh1.candidates
    val level2 = new HLHk(2)
    if (cfg.maxK >= 2) {
      // Cartesian F1 x F1 as canonical sorted pairs (self-pairs admitted —
      // the search-space derivation counts P(n,2)+n groups). The pair
      // filter applies here only: A-STPM mines k >= 3 exactly.
      for {
        i <- f1.indices
        j <- i until f1.size
        e0 = f1(i); e1 = f1(j)
        if pairFilter.forall(f => f(e0.series, e1.series))
        sup = intersectSorted(hlh1.support(e0), hlh1.support(e1))
        if groupAdmitted(sup, cfg)
      } commit(level2, stats.tally(minePairData(hlh1, e0, e1, sup, cfg)), cfg, keepOccs = cfg.maxK > 2)
      noteLevel(level2, cfg, stats, frequent)
    }
    stats.peakEntries = hlh1.entryCount + level2.entryCount
    // Transitivity pruning (Lemma 4): only events of candidate 2-patterns
    // extend a group. They include every event of a candidate k-pattern,
    // so the one filter is sound at every k >= 3.
    val filteredF1 =
      if (cfg.transitivity) { val pe = level2.patternEvents(cfg.season); f1.filter(pe.contains) }
      else f1
    (MiningResult(frequent.result(), stats), SubtreeInputs(hlh1, level2.phk.toMap, filteredF1, cfg), level2)
  }

  /** Mine the subtree of the level-2 group `root`, levels 3..maxK, a level
    * at a time; of `level2` only the root's entry and occurrences are read.
    * The result's peak entries are those of all the subtree's levels.
    */
  private[repro] def mineSubtree(in: SubtreeInputs, level2: HLHk, root: Vector[Event]): MiningResult = {
    val stats = new MiningStats
    val frequent = Vector.newBuilder[FrequentPattern]
    var level = level2
    var groups: Iterable[(Vector[Event], GroupEntry)] = Seq(root -> level2.ehk(root))
    while (level.k < in.cfg.maxK && groups.nonEmpty) {
      level = extendLevel(in, level, groups, stats)
      noteLevel(level, in.cfg, stats, frequent)
      stats.peakEntries += level.entryCount
      groups = level.ehk
    }
    MiningResult(frequent.result(), stats)
  }

  /** Extend `groups` of level `prev` by one FilteredF1 event each into the
    * next level. Occurrences are stored only below level maxK.
    */
  private[core] def extendLevel(
      in: SubtreeInputs,
      prev: HLHk,
      groups: Iterable[(Vector[Event], GroupEntry)],
      stats: MiningStats): HLHk = {
    val next = new HLHk(prev.k + 1)
    for {
      (group, entry) <- groups
      ek <- in.filteredF1
      if Event.ordering.gteq(ek, group.last) // canonical extension only
      sup = intersectSorted(entry.support, in.hlh1.support(ek))
      if groupAdmitted(sup, in.cfg)
    } commit(next, stats.tally(extendGroupData(in, prev, group, entry, ek, sup)), in.cfg,
      keepOccs = next.k < in.cfg.maxK)
    next
  }

  /** Levels 1–2 followed by the subtrees of the level-2 groups, in `ehk`
    * order. Counters add up per level; the peak entries add the largest
    * subtree's. Frequent patterns are ordered by level.
    */
  private[repro] def merge(top: MiningResult, subtrees: Iterator[MiningResult]): MiningResult = {
    val stats = top.stats
    val frequent = Vector.newBuilder[FrequentPattern] ++= top.frequent
    var largest = 0L
    for (MiningResult(f, s) <- subtrees) {
      frequent ++= f
      for ((k, n) <- s.candidateGroups) stats.candidateGroups(k) = stats.candidateGroups.getOrElse(k, 0) + n
      for ((k, n) <- s.candidatePatterns) stats.candidatePatterns(k) = stats.candidatePatterns.getOrElse(k, 0) + n
      stats.relationChecks += s.relationChecks
      stats.occurrences += s.occurrences
      largest = math.max(largest, s.peakEntries)
    }
    stats.peakEntries += largest
    MiningResult(frequent.result().sortBy(_.k), stats)
  }

  /** Count a finished level and collect its frequent patterns. */
  private def noteLevel(level: HLHk, cfg: STPMConfig, stats: MiningStats,
                        frequent: mutable.Growable[FrequentPattern]): Unit = {
    stats.candidateGroups(level.k) = level.ehk.size
    stats.candidatePatterns(level.k) = level.phk.size
    for ((p, sup) <- level.phk; seasons <- Seasonality.frequentSeasons(sup, cfg.season))
      frequent += FrequentPattern(p, sup, seasons)
  }

  /** Candidate k-event group test: maxSeason >= minSeason when Apriori-like
    * pruning is on (Sec. IV-B); otherwise only non-emptiness.
    */
  private def groupAdmitted(sup: Vector[Int], cfg: STPMConfig): Boolean =
    if (cfg.apriori) Seasonality.isCandidate(sup.size, cfg.season) else sup.nonEmpty

  /** Mine candidate 2-event patterns of group (e0, e1) (Sec. 4.2.1): the
    * single-event group e0 of HLH1 extended by e1. Pure w.r.t. its inputs —
    * safe on executors.
    */
  private[repro] def minePairData(
      hlh1: HLH1,
      e0: Event, e1: Event,
      sup: Vector[Int],
      cfg: STPMConfig): GroupMined =
    extendGroupData(SubtreeInputs(hlh1, Map.empty, Vector.empty, cfg), hlh1,
      Vector(e0), GroupEntry(hlh1.support(e0), Vector(PatternKey.single(e0))), e1, sup)

  /** Extend every candidate (k-1)-pattern of `group` with instances of `ek`
    * (Sec. 4.2.2): for each granule in the group's support, each stored
    * occurrence grows by one instance; the new slot-pair relations are
    * appended, iteratively checked against candidate 2-patterns when
    * transitivity pruning is on and k >= 3.
    */
  private def extendGroupData(
      in: SubtreeInputs,
      prev: HLHLevel,
      group: Vector[Event],
      entry: GroupEntry,
      ek: Event,
      sup: Vector[Int]): GroupMined = {
    val cfg = in.cfg
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
        val eks = in.hlh1.instancesAt(ek, g)
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
            ok = !cfg.transitivity || newGroup.size == 2 || pairIsCandidate(newGroup.size, in, first, second, rel)
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
    * must exist as a candidate 2-event pattern of `phk2`. The orientation
    * flag tells which slot held the chronologically first instance
    * (self-pairs: true); under apriori = off `phk2` is unfiltered, so
    * candidacy is re-checked on its support. Beyond level 3 we
    * conservatively re-derive the pair's support from HLH1 — sound for any k.
    */
  private def pairIsCandidate(k: Int, in: SubtreeInputs, first: Instance, second: Instance, rel: Rel): Boolean = {
    val (e0, e1) = if (Event.ordering.lteq(first.event, second.event))
      (first.event, second.event) else (second.event, first.event)
    val sup =
      if (k > 3) intersectSorted(in.hlh1.support(e0), in.hlh1.support(e1))
      else in.phk2.getOrElse(PatternKey(Vector(e0, e1), Vector((rel, first.event == second.event || first.event == e0))),
        Vector.empty)
    Seasonality.isCandidate(sup.size, in.cfg.season)
  }

  /** Store a mined group into HLH_k, applying the maxSeason filter on its
    * patterns (Apriori-like pruning). Occurrences are stored only when
    * `keepOccs`, i.e. when a next level will extend them.
    */
  private[repro] def commit(hlhk: HLHk, gm: GroupMined, cfg: STPMConfig, keepOccs: Boolean): Unit = {
    val byKey = gm.patterns.toMap
    val kept = gm.patterns.iterator.filter { case (_, s) =>
      if (cfg.apriori) Seasonality.isCandidate(s.size, cfg.season) else s.nonEmpty
    }.map(_._1).toVector
    if (kept.nonEmpty) {
      hlhk.ehk.update(gm.group, GroupEntry(gm.sup, kept))
      for (p <- kept) {
        hlhk.phk.update(p, byKey(p))
        if (keepOccs) for (g <- byKey(p))
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
