// Journal v2 integrity model, exercised fixture by fixture: truncated final
// row, flipped byte (CRC mismatch), unknown version tag (quarantine),
// missing END trailer, zero-attempt rows, and transparent v1-format
// resume. Every corruption must recover the maximum valid prefix and
// re-attempt the rest — resume is never worse than a fresh start, whatever
// is on disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pf/analysis/checkpoint.hpp"
#include "pf/analysis/region.hpp"
#include "pf/util/crc32.hpp"
#include "pf/util/error.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::Ffm;
using faults::Sos;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  spec.sos = Sos::parse("1r1");
  spec.r_axis = pf::logspace(1e6, 10e6, 3);
  spec.u_axis = pf::linspace(0.0, 3.3, 4);
  return spec;
}

std::string temp_journal(const char* name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string hex16_of(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A freshly written, finalized journal covering the whole 3x4 grid.
std::string make_complete_journal(const SweepSpec& spec, const char* name) {
  const std::string path = temp_journal(name);
  std::remove(path.c_str());
  ExecutionPolicy opt;
  opt.journal_path = path;
  sweep_region(spec, opt);
  return path;
}

TEST(JournalV2, CompleteRunEndsWithSelfValidatingTrailer) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_trailer.csv");
  const auto lines = lines_of(read_file(path));
  ASSERT_GE(lines.size(), 2u + 12u + 1u);  // header, columns, rows, trailer
  EXPECT_EQ(lines.front(), "# pf-sweep-journal v2 fingerprint=" +
                               hex16_of(SweepJournal::fingerprint(spec)));
  EXPECT_EQ(lines[1], "iy,ix,r_def,u,ffm,attempts,crc");
  EXPECT_EQ(lines.back(), "# pf-sweep-journal END fingerprint=" +
                              hex16_of(SweepJournal::fingerprint(spec)));

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_EQ(loaded.version, 2);
  EXPECT_TRUE(loaded.clean_end);
  EXPECT_EQ(loaded.entries.size(), 12u);
  EXPECT_EQ(loaded.dropped, 0u);
  EXPECT_FALSE(loaded.quarantined);
  std::remove(path.c_str());
}

TEST(JournalV2, EveryRowCarriesItsOwnCrc) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_crc.csv");
  for (const std::string& line : lines_of(read_file(path))) {
    if (line.empty() || line[0] == '#' || line == "iy,ix,r_def,u,ffm,attempts,crc")
      continue;
    const size_t crc_pos = line.rfind(',');
    ASSERT_NE(crc_pos, std::string::npos);
    char expect[9];
    std::snprintf(expect, sizeof(expect), "%08x",
                  pf::crc32(std::string_view(line).substr(0, crc_pos)));
    EXPECT_EQ(line.substr(crc_pos + 1), expect) << line;
  }
  std::remove(path.c_str());
}

TEST(JournalV2, TruncatedFinalRowRecoversThePrefix) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_trunc.csv");
  std::string all = read_file(path);
  const size_t trailer = all.rfind("# pf-sweep-journal END");
  ASSERT_NE(trailer, std::string::npos);
  all.resize(trailer);                       // crash: no trailer...
  write_file(path, all.substr(0, all.size() - 5));  // ...and a torn last row

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_EQ(loaded.entries.size(), 11u);
  EXPECT_EQ(loaded.dropped, 1u);
  EXPECT_FALSE(loaded.clean_end);
  EXPECT_FALSE(loaded.quarantined);

  // Resuming re-attempts exactly the lost point and reproduces the map.
  const RegionMap clean = sweep_region(spec);
  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().resumed, 11u);
  EXPECT_EQ(map.solve_stats().attempted, 1u);
  EXPECT_EQ(map.solve_stats().journal_dropped, 1u);
  EXPECT_EQ(map.to_csv(), clean.to_csv());
  std::remove(path.c_str());
}

TEST(JournalV2, FlippedByteFailsTheCrcAndDropsOnlyThatRow) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_flip.csv");
  std::vector<std::string> lines = lines_of(read_file(path));
  // Flip one byte inside the FFM field of the third data row: the row still
  // parses as CSV, but its CRC no longer matches.
  std::string& victim = lines[4];
  const size_t mid = victim.find(',', victim.find(',') + 1) + 1;
  victim[mid] = victim[mid] == '9' ? '8' : '9';
  std::string rebuilt;
  for (const std::string& l : lines) rebuilt += l + '\n';
  write_file(path, rebuilt);

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_EQ(loaded.entries.size(), 11u);
  EXPECT_EQ(loaded.dropped, 1u);
  EXPECT_TRUE(loaded.clean_end);  // the trailer itself is intact

  const RegionMap clean = sweep_region(spec);
  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().resumed, 11u);
  EXPECT_EQ(map.solve_stats().attempted, 1u);
  EXPECT_EQ(map.to_csv(), clean.to_csv());
  std::remove(path.c_str());
}

TEST(JournalV2, UnknownVersionTagQuarantinesAndRestartsFresh) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_version.csv");
  std::string all = read_file(path);
  const size_t v = all.find("v2");
  ASSERT_NE(v, std::string::npos);
  all.replace(v, 2, "v9");
  write_file(path, all);

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_TRUE(loaded.quarantined);
  EXPECT_TRUE(loaded.entries.empty());
  // The evidence is preserved next to the original path...
  EXPECT_FALSE(read_file(path + ".corrupt").empty());
  // ...and the journal path itself is gone until a writer recreates it.
  EXPECT_TRUE(read_file(path).empty());

  const RegionMap clean = sweep_region(spec);
  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().resumed, 0u);
  EXPECT_EQ(map.solve_stats().attempted, 12u);
  EXPECT_EQ(map.to_csv(), clean.to_csv());
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(JournalV2, GarbageHeaderQuarantinesInsteadOfThrowing) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_journal("jv2_garbage.csv");
  write_file(path, "this is not a journal\n1,2,3\n");

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_TRUE(loaded.quarantined);
  EXPECT_TRUE(loaded.entries.empty());
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(JournalV2, RepeatedQuarantinesGetCounterSuffixesAndNeverOverwrite) {
  // Two corrupt journals landing on the same path must BOTH survive as
  // evidence: the first goes to <path>.corrupt, the second to
  // <path>.corrupt.1 — never clobbering the first.
  const SweepSpec spec = small_spec();
  const std::string path = temp_journal("jv2_collide.csv");
  std::remove((path + ".corrupt").c_str());
  std::remove((path + ".corrupt.1").c_str());

  write_file(path, "garbage one\n");
  EXPECT_TRUE(SweepJournal::load(path, spec).quarantined);
  write_file(path, "garbage two\n");
  EXPECT_TRUE(SweepJournal::load(path, spec).quarantined);

  EXPECT_EQ(read_file(path + ".corrupt"), "garbage one\n");
  EXPECT_EQ(read_file(path + ".corrupt.1"), "garbage two\n");
  std::remove((path + ".corrupt").c_str());
  std::remove((path + ".corrupt.1").c_str());
}

TEST(JournalV2, SweepStatsCountQuarantines) {
  // The sweep driver surfaces a quarantine in its stats — a campaign log
  // that silently restarted a corrupt journal would read as "all intact".
  const SweepSpec spec = small_spec();
  const std::string path = temp_journal("jv2_quarantine_stats.csv");
  write_file(path, "not a journal header\n");

  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().journal_quarantined, 1u);
  EXPECT_EQ(map.solve_stats().resumed, 0u);
  EXPECT_EQ(map.solve_stats().attempted, 12u);

  // A clean rerun over the fresh journal quarantines nothing.
  const RegionMap rerun = sweep_region(spec, opt);
  EXPECT_EQ(rerun.solve_stats().journal_quarantined, 0u);
  EXPECT_EQ(rerun.solve_stats().resumed, 12u);
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(JournalV2, MissingEndTrailerReadsAsInterrupted) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_noend.csv");
  std::string all = read_file(path);
  const size_t trailer = all.rfind("# pf-sweep-journal END");
  ASSERT_NE(trailer, std::string::npos);
  write_file(path, all.substr(0, trailer));

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_FALSE(loaded.clean_end);
  EXPECT_EQ(loaded.entries.size(), 12u);  // every row is still valid
  EXPECT_EQ(loaded.dropped, 0u);

  // A resume over a complete-but-unfinalized journal re-runs nothing and
  // writes the trailer, making the next load clean.
  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().resumed, 12u);
  EXPECT_EQ(map.solve_stats().attempted, 0u);
  EXPECT_TRUE(SweepJournal::load(path, spec).clean_end);
  std::remove(path.c_str());
}

TEST(JournalV2, TornTrailerIsNotACleanEnd) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_torntrail.csv");
  std::string all = read_file(path);
  if (all.back() == '\n') all.pop_back();
  write_file(path, all.substr(0, all.size() - 3));  // trailer loses 3 chars

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_FALSE(loaded.clean_end);  // a torn trailer never reads as complete
  EXPECT_EQ(loaded.entries.size(), 12u);
  std::remove(path.c_str());
}

TEST(JournalV2, V1JournalResumesTransparently) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_journal("jv2_v1compat.csv");
  // Hand-write a PR 1 journal: v1 header, no CRC column, 6-field rows, no
  // trailer; include one FAIL row (re-attempted) and one garbage row
  // (dropped under the lenient v1 rules).
  {
    const RegionMap clean = sweep_region(spec);
    std::ostringstream os;
    os << "# pf-sweep-journal v1 fingerprint="
       << hex16_of(SweepJournal::fingerprint(spec)) << '\n'
       << "iy,ix,r_def,u,ffm,attempts\n";
    size_t written = 0;
    for (size_t iy = 0; iy < spec.r_axis.size(); ++iy)
      for (size_t ix = 0; ix < spec.u_axis.size(); ++ix) {
        if (written == 5) {
          os << iy << ',' << ix << ',' << spec.r_axis[iy] << ','
             << spec.u_axis[ix] << ",FAIL,3\n";
        } else if (written == 7) {
          os << "garbage row that does not parse\n";
        } else if (written < 10) {
          const Ffm f = clean.grid().at(ix, iy);
          os << iy << ',' << ix << ',' << spec.r_axis[iy] << ','
             << spec.u_axis[ix] << ','
             << (f == Ffm::kUnknown ? "-" : faults::ffm_name(f)) << ",1\n";
        }
        ++written;
      }
    write_file(path, os.str());
  }

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_EQ(loaded.version, 1);
  EXPECT_EQ(loaded.entries.size(), 8u);  // 10 written - FAIL - garbage
  EXPECT_EQ(loaded.fail_rows, 1u);
  EXPECT_EQ(loaded.dropped, 1u);
  EXPECT_FALSE(loaded.clean_end);

  // Resume re-runs the FAIL point, the garbage point and the 2 never-run
  // points, appends CRC'd v2 rows after the v1 rows, and the final map is
  // bit-identical to an uninterrupted run.
  const RegionMap clean = sweep_region(spec);
  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().resumed, 8u);
  EXPECT_EQ(map.solve_stats().attempted, 4u);
  EXPECT_EQ(map.to_csv(), clean.to_csv());

  // The mixed-format file now loads fully: v1 rows unchecked, v2 rows
  // CRC-checked, trailer present.
  const SweepJournal::LoadResult reloaded = SweepJournal::load(path, spec);
  EXPECT_EQ(reloaded.entries.size(), 12u);
  EXPECT_TRUE(reloaded.clean_end);
  std::remove(path.c_str());
}

TEST(JournalV2, ZeroAttemptRowsReRunOnResume) {
  // A finished journal in which every fourth row carries attempts = 0: a
  // point no experiment produced (the retired adaptive tracing filled such
  // points by inference), here with a class nothing observed. Load must not
  // trust those rows, so the resumed sweep re-runs them and lands on the
  // clean map.
  const SweepSpec spec = small_spec();
  const RegionMap clean = sweep_region(spec);
  const std::string path = temp_journal("jv2_zero_attempts.csv");
  const std::string fingerprint = hex16_of(SweepJournal::fingerprint(spec));
  std::ostringstream os;
  os << "# pf-sweep-journal v2 fingerprint=" << fingerprint << '\n'
     << "iy,ix,r_def,u,ffm,attempts,crc\n";
  size_t k = 0;
  for (size_t iy = 0; iy < spec.r_axis.size(); ++iy)
    for (size_t ix = 0; ix < spec.u_axis.size(); ++ix, ++k) {
      const bool inferred = k % 4 == 2;
      const Ffm f = inferred ? Ffm::kSF0 : clean.grid().at(ix, iy);
      std::ostringstream row;
      row << iy << ',' << ix << ',' << spec.r_axis[iy] << ','
          << spec.u_axis[ix] << ','
          << (f == Ffm::kUnknown ? "-" : faults::ffm_name(f)) << ','
          << (inferred ? 0 : 1);
      char crc[9];
      std::snprintf(crc, sizeof(crc), "%08x", pf::crc32(row.str()));
      os << row.str() << ',' << crc << '\n';
    }
  os << "# pf-sweep-journal END fingerprint=" << fingerprint << '\n';
  write_file(path, os.str());

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_TRUE(loaded.clean_end);
  EXPECT_EQ(loaded.entries.size(), 9u);
  EXPECT_EQ(loaded.dropped, 0u);
  EXPECT_EQ(loaded.fail_rows, 0u);
  for (const SweepJournal::Entry& e : loaded.entries)
    EXPECT_GT(e.attempts, 0) << e.iy << ',' << e.ix;

  ExecutionPolicy opt;
  opt.journal_path = path;
  const RegionMap map = sweep_region(spec, opt);
  EXPECT_EQ(map.solve_stats().resumed, 9u);
  EXPECT_EQ(map.solve_stats().attempted, 3u);
  EXPECT_EQ(map.to_csv(), clean.to_csv());
  std::remove(path.c_str());
}

TEST(JournalV2, SixFieldRowUnderV2HeaderIsATruncationArtifact) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_sixfield.csv");
  std::vector<std::string> lines = lines_of(read_file(path));
  // Chop the CRC field off a data row: under a v2 header this is exactly
  // what a torn write looks like, and must be dropped even though it would
  // be a well-formed v1 row.
  std::string& victim = lines[3];
  victim.resize(victim.rfind(','));
  std::string rebuilt;
  for (const std::string& l : lines) rebuilt += l + '\n';
  write_file(path, rebuilt);

  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_EQ(loaded.entries.size(), 11u);
  EXPECT_EQ(loaded.dropped, 1u);
  std::remove(path.c_str());
}

TEST(JournalV2, MismatchedFingerprintStillThrows) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_mismatch.csv");
  SweepSpec other = spec;
  other.sos = Sos::parse("0w0");
  EXPECT_THROW(SweepJournal::load(path, other), pf::Error);
  std::remove(path.c_str());
}

TEST(JournalV2, DuplicateRowsKeepTheLastOccurrence) {
  const SweepSpec spec = small_spec();
  const std::string path = make_complete_journal(spec, "jv2_dup.csv");
  // Append a CRC-valid duplicate of point (0,0) recording a different FFM.
  {
    SweepJournal journal(path, spec);
    SweepJournal::Entry e;
    e.ix = 0;
    e.iy = 0;
    e.ffm = Ffm::kRDF1;
    e.attempts = 9;
    journal.append(e, spec.r_axis[0], spec.u_axis[0]);
  }
  const SweepJournal::LoadResult loaded = SweepJournal::load(path, spec);
  EXPECT_EQ(loaded.entries.size(), 12u);
  bool found = false;
  for (const SweepJournal::Entry& e : loaded.entries)
    if (e.ix == 0 && e.iy == 0) {
      found = true;
      EXPECT_EQ(e.ffm, Ffm::kRDF1);
      EXPECT_EQ(e.attempts, 9);
    }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pf::analysis
