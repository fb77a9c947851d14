#include "campaign/report.hpp"

#include <ostream>

#include "common/json_string.hpp"
#include "store/serialize.hpp"

namespace hi::campaign {

namespace {

constexpr std::uint8_t kWorkerReportVersion = 1;

}  // namespace

std::uint64_t CampaignReport::total_fresh_simulations() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    n += c.skipped ? 0 : c.result.simulations;
  }
  return n;
}

std::uint64_t CampaignReport::total_store_hits() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    n += c.store_hits;
  }
  return n;
}

std::uint64_t CampaignReport::skipped_cells() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    n += c.skipped ? 1 : 0;
  }
  return n;
}

void CampaignReport::print(std::ostream& os, bool json) const {
  // Compatibility surface: the report hi_campaign printed before the
  // fabric existed; tests parse these strings.
  if (json) {
    JsonWriter w;
    w.object(JsonWriter::kBlock).field("store", store_path);
    w.key("recovery").object(JsonWriter::kInline);
    w.field("records", recovery.records);
    w.field("corrupt_dropped", recovery.corrupt_dropped);
    w.field("tail_truncated", recovery.tail_truncated).end();
    w.key("cells").array(JsonWriter::kBlock);
    for (const CellReport& c : cells) {
      w.object(JsonWriter::kInline).field("scenario", c.scenario);
      w.field("pdr_min", c.pdr_min).field("skipped", c.skipped);
      w.field("feasible", c.result.feasible);
      w.field("best", c.result.best.label());
      w.field("best_power_mw", c.result.best_power_mw);
      w.field("best_pdr", c.result.best_pdr);
      w.field("simulations", c.result.simulations);
      w.field("store_hits", c.store_hits).end();
    }
    w.end().key("totals").object(JsonWriter::kInline);
    w.field("cells", cells.size()).field("skipped", skipped_cells());
    w.field("fresh_simulations", total_fresh_simulations());
    w.field("store_hits", total_store_hits());
    w.field("stored_evals", stored_evals);
    w.field("stored_cells", stored_cells).end();
    os << w.end().take();
    return;
  }
  for (const CellReport& c : cells) {
    os << c.scenario << " @ PDRmin=" << c.pdr_min << ": ";
    if (c.skipped) {
      os << "checkpointed (skipped), ";
    }
    if (c.result.feasible) {
      os << c.result.best.label() << "  P=" << c.result.best_power_mw
         << " mW  PDR=" << c.result.best_pdr;
    } else {
      os << "infeasible";
    }
    os << "  [sims=" << c.result.simulations
       << " store_hits=" << c.store_hits << "]\n";
  }
  os << "campaign: " << cells.size() << " cells (" << skipped_cells()
     << " resumed), " << total_fresh_simulations() << " fresh simulations, "
     << total_store_hits() << " store hits; store holds " << stored_evals
     << " evaluations / " << stored_cells << " cell checkpoints\n";
}

std::string WorkerReport::encode() const {
  store::ByteWriter w;
  w.put_u8(kWorkerReportVersion);
  w.put_i32(slot);
  w.put_i32(pid);
  w.put_u64(rows_claimed);
  w.put_u64(cells_done);
  w.put_u64(cells_skipped);
  w.put_u64(fresh_simulations);
  w.put_u64(store_hits);
  w.put_u64(steals);
  w.put_u64(recoveries);
  w.put_u64(lease_expiries);
  w.put_f64(wall_s);
  return w.take();
}

bool WorkerReport::decode(std::string_view bytes, WorkerReport* out) {
  store::ByteReader r(bytes);
  if (r.get_u8() != kWorkerReportVersion) {
    return false;
  }
  WorkerReport rep;
  rep.slot = r.get_i32();
  rep.pid = r.get_i32();
  rep.rows_claimed = r.get_u64();
  rep.cells_done = r.get_u64();
  rep.cells_skipped = r.get_u64();
  rep.fresh_simulations = r.get_u64();
  rep.store_hits = r.get_u64();
  rep.steals = r.get_u64();
  rep.recoveries = r.get_u64();
  rep.lease_expiries = r.get_u64();
  rep.wall_s = r.get_f64();
  if (!r.at_end()) {
    return false;
  }
  rep.reported = true;
  *out = rep;
  return true;
}

WorkerReport FleetReport::totals() const {
  WorkerReport t;
  t.reported = true;
  for (const WorkerReport& w : worker_reports) {
    if (!w.reported) {
      continue;  // a killed worker's numbers are simply absent
    }
    t.rows_claimed += w.rows_claimed;
    t.cells_done += w.cells_done;
    t.cells_skipped += w.cells_skipped;
    t.fresh_simulations += w.fresh_simulations;
    t.store_hits += w.store_hits;
    t.steals += w.steals;
    t.recoveries += w.recoveries;
    t.lease_expiries += w.lease_expiries;
  }
  return t;
}

double FleetReport::throughput_cells_per_s() const {
  if (wall_s <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(totals().cells_done) / wall_s;
}

std::string FleetReport::to_json() const {
  const WorkerReport t = totals();
  JsonWriter w;
  w.object(JsonWriter::kBlock).field("shard_dir", shard_dir);
  w.field("merged_store", merged_path).field("run_id", run_id);
  w.field("workers", workers).field("complete", complete);
  w.field("planned_cells", planned_cells);
  w.field("checkpointed_cells", checkpointed_cells).field("wall_s", wall_s);
  w.field("throughput_cells_per_s", throughput_cells_per_s());
  w.key("worker_reports").array(JsonWriter::kBlock);
  for (const WorkerReport& r : worker_reports) {
    w.object(JsonWriter::kInline).field("slot", r.slot).field("pid", r.pid);
    w.field("reported", r.reported).field("exit_code", r.exit_code);
    w.field("term_signal", r.term_signal);
    w.field("rows_claimed", r.rows_claimed);
    w.field("cells_done", r.cells_done);
    w.field("cells_skipped", r.cells_skipped);
    w.field("fresh_simulations", r.fresh_simulations);
    w.field("store_hits", r.store_hits).field("steals", r.steals);
    w.field("recoveries", r.recoveries);
    w.field("lease_expiries", r.lease_expiries);
    w.field("wall_s", r.wall_s).end();
  }
  w.end().key("merge").object(JsonWriter::kInline);
  w.field("evals", merge.evals).field("cells", merge.cells);
  w.field("frames", merge.frames);
  w.field("duplicate_evals", merge.duplicate_evals);
  w.field("superseded_cells", merge.superseded_cells);
  w.field("clean", merge.clean()).key("shards").array(JsonWriter::kBlock);
  for (const store::EvalStore::ShardMergeStats& s : merge.shards) {
    w.object(JsonWriter::kInline).field("path", s.path);
    w.field("present", s.present).field("records", s.records);
    w.field("evals_added", s.evals_added).field("cells_added", s.cells_added);
    w.field("duplicate_evals", s.duplicate_evals);
    w.field("superseded_cells", s.superseded_cells);
    w.field("corrupt_dropped", s.corrupt_dropped);
    w.field("tail_truncated", s.tail_truncated);
    w.field("desynced", s.desynced).end();
  }
  w.end().end().key("totals").object(JsonWriter::kInline);
  w.field("rows_claimed", t.rows_claimed).field("cells_done", t.cells_done);
  w.field("cells_skipped", t.cells_skipped);
  w.field("fresh_simulations", t.fresh_simulations);
  w.field("store_hits", t.store_hits).field("steals", t.steals);
  w.field("recoveries", t.recoveries);
  w.field("lease_expiries", t.lease_expiries).end();
  return w.end().take();
}

void FleetReport::print(std::ostream& os, bool json) const {
  if (json) {
    os << to_json();
    return;
  }
  const WorkerReport t = totals();
  for (const WorkerReport& w : worker_reports) {
    os << "worker " << w.slot << " (pid " << w.pid << "): ";
    if (!w.reported) {
      os << "no report";
      if (w.term_signal != 0) {
        os << " (killed by signal " << w.term_signal << ")";
      }
      os << "\n";
      continue;
    }
    os << w.rows_claimed << " rows, " << w.cells_done << " cells ("
       << w.cells_skipped << " skipped), " << w.fresh_simulations
       << " fresh sims, " << w.store_hits << " store hits";
    if (w.steals > 0 || w.recoveries > 0) {
      os << ", " << w.steals << " steals, " << w.recoveries << " recoveries";
    }
    os << "\n";
  }
  os << "fleet: " << workers << " workers, " << checkpointed_cells << "/"
     << planned_cells << " cells "
     << (complete ? "complete" : "INCOMPLETE (re-run with --resume)") << ", "
     << t.fresh_simulations << " fresh simulations, " << t.steals
     << " steals, " << t.recoveries << " recoveries; merged "
     << merge.evals << " evaluations / " << merge.cells
     << " checkpoints into " << merged_path
     << (merge.clean() ? "" : " [shard damage dropped; see fleet.json]")
     << "\n";
}

}  // namespace hi::campaign
