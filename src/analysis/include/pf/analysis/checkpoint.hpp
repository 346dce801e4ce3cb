// Crash-safe checkpoint/resume journal for long (R_def, U) sweeps — v2.
//
// A production-scale sweep appends one row per completed grid point to a
// journal file, flushed immediately, so an interrupted run (crash, kill,
// power loss, cooperative cancellation) can resume by re-reading the journal
// and skipping every point it already solved. Rows recording a solver
// failure (FAIL) are *not* skipped on resume: a later run — possibly with a
// different retry policy — gets another chance at them. Neither are rows
// with attempts = 0, which no experiment produced.
//
// v2 format (CSV after a tagged header; CRC-32 per row, END trailer):
//
//   # pf-sweep-journal v2 fingerprint=<16 hex digits>
//   iy,ix,r_def,u,ffm,attempts,crc
//   0,0,10000,0,-,1,1a2b3c4d
//   0,1,10000,0.3,RDF1,2,5e6f7a8b
//   1,3,31623,0.9,FAIL,3,9c0d1e2f
//   # pf-sweep-journal END fingerprint=<16 hex digits>
//
// Integrity model — the journal must never make resume *worse* than a
// fresh start, whatever is on disk:
//
//   * every data row carries the CRC-32 of its payload (the text before
//     ",crc"); a bit flip, a torn flush or a truncated tail fails the check
//     and the row is DROPPED (and counted), never trusted and never fatal —
//     that point simply re-runs; appends after a torn tail start on a new
//     line, so the re-run's row is not fused with the torn one;
//   * the END trailer is written by finalize() when a sweep runs to
//     completion; a journal whose last line is not a valid trailer is a
//     crashed/interrupted tail, which load() reports via clean_end so
//     callers can log "resuming an interrupted sweep";
//   * duplicate (iy, ix) rows keep the LAST occurrence (appends are
//     chronological, later = more recent);
//   * a file whose header is unreadable (not a journal tag, mangled
//     fingerprint field, unknown version) is QUARANTINED: renamed to
//     <path>.corrupt — or <path>.corrupt.1, .2, ... when earlier quarantined
//     evidence already holds that name — and the sweep restarts fresh; the
//     evidence is kept, the campaign keeps running (quarantines are counted
//     in SweepStats::journal_quarantined);
//   * a v1 journal (PR 1 format, no CRCs) loads transparently: its 6-field
//     rows are accepted unchecked, and the v2 writer appends CRC'd rows
//     after them (load() accepts both row shapes in one file). Under a v2
//     header a 6-field row is a truncation artifact and is dropped.
//
// The fingerprint hashes the sweep identity (defect, floating line, SOS
// notation, both axes); loading a journal written for a different sweep
// still throws — that is two live sweeps colliding on one path (caller
// error), not corruption. DramParams are not fingerprinted: a journal is
// only as valid as the parameter set it was recorded under.
//
// Concurrency: append() is the journal's single-writer path — a mutex
// serializes the workers of a parallel sweep, and every row is flushed
// before the mutex is released, so a crash loses at most the row being
// written. Rows may appear in any grid order; load() keys rows by (iy, ix)
// and does not care. A journal written by an N-thread run resumes correctly
// in a serial run and vice versa.
#pragma once

#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "pf/analysis/region.hpp"

namespace pf::analysis {

class SweepJournal {
 public:
  struct Entry {
    size_t ix = 0;
    size_t iy = 0;
    faults::Ffm ffm = faults::Ffm::kUnknown;  ///< kUnknown = solved, no fault
    int attempts = 1;
  };

  /// What load() recovered, and how trustworthy the file looked.
  struct LoadResult {
    std::vector<Entry> entries;  ///< valid solved rows (FAIL rows excluded)
    size_t dropped = 0;     ///< corrupt/truncated/unparsable rows dropped
    size_t fail_rows = 0;   ///< valid FAIL rows seen (re-attempted on resume)
    bool clean_end = false; ///< file ends with a valid END trailer
    bool quarantined = false;  ///< unreadable file moved to <path>.corrupt
    int version = 0;        ///< header version (1 or 2); 0 = no/empty file
  };

  /// Sweep identity hash over defect, floating line, SOS and both axes.
  static uint64_t fingerprint(const SweepSpec& spec);

  /// Parse the journal at `path` (empty result when the file does not
  /// exist), recovering the maximum valid prefix of rows per the integrity
  /// model above. Throws pf::Error only when a readable journal belongs to
  /// a different sweep or a CRC-valid row indexes outside the grid.
  static LoadResult load(const std::string& path, const SweepSpec& spec);

  /// Open `path` for appending, writing the v2 header when the file is new
  /// or empty (an unreadable existing file is quarantined first, exactly as
  /// in load()). Throws pf::Error when the file cannot be opened.
  SweepJournal(const std::string& path, const SweepSpec& spec);

  /// Append one completed grid point and flush. Safe to call from multiple
  /// sweep workers concurrently (internally serialized).
  void append(const Entry& entry, double r_def, double u);

  /// Write the END trailer and flush — call when the sweep ran to
  /// completion (every grid point journaled). Idempotent per journal
  /// object. A journal destroyed without finalize() (crash, cancellation)
  /// has no trailer, which is exactly what marks it interrupted.
  void finalize();

  /// Rows appended through this object (excludes resumed/previous rows).
  size_t rows_appended() const { return rows_appended_; }

 private:
  std::mutex mu_;
  std::ofstream out_;
  uint64_t fingerprint_ = 0;
  size_t rows_appended_ = 0;
  bool finalized_ = false;
};

}  // namespace pf::analysis
