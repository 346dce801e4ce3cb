#include "pf/analysis/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

#include "pf/util/crc32.hpp"
#include "pf/util/fnv1a.hpp"
#include "pf/util/log.hpp"
#include "pf/util/quarantine.hpp"
#include "pf/util/strings.hpp"

namespace pf::analysis {
namespace {

// Header: "# pf-sweep-journal v<N> fingerprint=<16 hex>".
constexpr const char* kJournalTag = "# pf-sweep-journal ";
constexpr const char* kFingerprintField = "fingerprint=";
// Trailer: "# pf-sweep-journal END fingerprint=<16 hex>" — self-validating
// against the header fingerprint, so a torn trailer write reads as a
// crashed tail, never as a clean completion.
constexpr const char* kTrailerWord = "END";
constexpr const char* kColumnHeaderV1 = "iy,ix,r_def,u,ffm,attempts";
constexpr const char* kColumnHeaderV2 = "iy,ix,r_def,u,ffm,attempts,crc";

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string hex8(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08" PRIx32, v);
  return buf;
}

std::string axis_text(const std::vector<double>& axis) {
  std::ostringstream os;
  os.precision(17);
  for (const double v : axis) os << v << ';';
  return os.str();
}

bool is_hex(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

std::string trailer_line(uint64_t fingerprint) {
  return std::string(kJournalTag) + kTrailerWord + ' ' + kFingerprintField +
         hex16(fingerprint);
}

/// Parsed "# pf-sweep-journal ..." header line. version 0 = unreadable.
struct Header {
  int version = 0;
  std::string fingerprint;
};

Header parse_header(const std::string& line) {
  Header h;
  if (line.rfind(kJournalTag, 0) != 0) return h;
  const std::vector<std::string> fields =
      pf::split(pf::trim(line.substr(std::string(kJournalTag).size())), ' ');
  if (fields.size() != 2) return h;
  int version = 0;
  if (fields[0] == "v1")
    version = 1;
  else if (fields[0] == "v2")
    version = 2;
  else
    return h;
  const std::string fp_field(kFingerprintField);
  if (fields[1].rfind(fp_field, 0) != 0) return h;
  const std::string fp = fields[1].substr(fp_field.size());
  if (fp.size() != 16 || !is_hex(fp)) return h;
  h.version = version;
  h.fingerprint = fp;
  return h;
}

/// Move an unreadable journal out of the way, keeping the evidence. The
/// quarantine name gets a monotonic counter suffix when <path>.corrupt is
/// already taken, so a second corrupt journal at the same path never
/// overwrites the first. Returns false when the rename failed (the caller
/// then proceeds as if no journal existed; the open-for-append path will
/// truncate-write a fresh header).
bool quarantine(const std::string& path) {
  const std::string target = pf::quarantine_path(path);
  if (!target.empty())
    PF_LOG_WARN("journal " << path << " is unreadable; quarantined to "
                           << target << " and restarting fresh");
  else
    PF_LOG_WARN("journal " << path << " is unreadable and could not be "
                           << "quarantined; overwriting");
  return !target.empty();
}

/// First line of the file, or nullopt on missing/empty file.
bool read_first_line(const std::string& path, std::string* line) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  return static_cast<bool>(std::getline(in, *line));
}

/// True when the file's last byte is not a newline: an interrupted append
/// left a torn row there.
bool ends_mid_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open() || in.tellg() <= 0) return false;
  in.seekg(-1, std::ios::end);
  return in.get() != '\n';
}

}  // namespace

uint64_t SweepJournal::fingerprint(const SweepSpec& spec) {
  uint64_t hash = pf::kFnv1aOffsetBasis;
  // The separator keeps "ab"+"c" != "a"+"bc".
  for (const std::string& field :
       {dram::defect_name(spec.defect),
        std::to_string(spec.floating_line_index), spec.sos.to_string(),
        axis_text(spec.r_axis), axis_text(spec.u_axis)})
    hash = pf::fnv1a("\x1f", pf::fnv1a(field, hash));
  return hash;
}

SweepJournal::LoadResult SweepJournal::load(const std::string& path,
                                            const SweepSpec& spec) {
  LoadResult result;
  std::ifstream in(path);
  if (!in.is_open()) return result;
  std::string header_line;
  if (!std::getline(in, header_line)) return result;  // empty file

  const Header header = parse_header(header_line);
  if (header.version == 0) {
    // Not a recognizable journal header: a flipped byte in the tag, a
    // mangled fingerprint field, or an unknown version. The maximum valid
    // prefix is zero rows — quarantine and restart fresh.
    in.close();
    result.quarantined = quarantine(path);
    return result;
  }
  const std::string expected = hex16(fingerprint(spec));
  PF_CHECK_MSG(header.fingerprint == expected,
               "journal " << path << " belongs to a different sweep"
                          << " (fingerprint " << header.fingerprint
                          << ", expected " << expected
                          << "); delete it to start over");
  result.version = header.version;
  const std::string trailer = trailer_line(fingerprint(spec));

  // Recover row by row, keying by (iy, ix) with last-occurrence-wins (the
  // file is chronological). `last_significant` tracks whether the final
  // non-empty line is a valid trailer — the clean-completion marker.
  std::map<size_t, Entry> by_index;
  const size_t width = spec.u_axis.size();
  std::string line;
  bool last_is_trailer = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last_is_trailer = line == trailer;
    if (line[0] == '#' || line == kColumnHeaderV1 || line == kColumnHeaderV2)
      continue;
    std::vector<std::string> fields = pf::split(line, ',');
    // Row shapes: 7 fields = CRC'd v2 row (validated); 6 fields = legacy v1
    // row, accepted ONLY under a v1 header — under a v2 header every row
    // was written with a CRC, so 6 fields is a truncation artifact.
    bool checked = false;
    if (fields.size() == 7) {
      const size_t crc_pos = line.rfind(',');
      const uint32_t want = pf::crc32(std::string_view(line).substr(0, crc_pos));
      if (fields[6] != hex8(want)) {
        ++result.dropped;
        continue;
      }
      checked = true;
      fields.pop_back();
    } else if (fields.size() != 6 || header.version != 1) {
      ++result.dropped;
      continue;
    }
    Entry e;
    try {
      e.iy = std::stoul(fields[0]);
      e.ix = std::stoul(fields[1]);
      e.attempts = std::stoi(fields[5]);
    } catch (const std::exception&) {
      ++result.dropped;
      continue;
    }
    if (fields[4] == "-") {
      e.ffm = faults::Ffm::kUnknown;
    } else {
      e.ffm = faults::ffm_by_name(fields[4]);
      if (e.ffm == faults::Ffm::kUnknown &&
          fields[4] != faults::ffm_name(faults::Ffm::kSolveFailed)) {
        ++result.dropped;  // unreadable FFM name
        continue;
      }
    }
    // A CRC-valid row pointing outside the grid cannot happen by bit rot
    // (the fingerprint pins both axes) — treat as the caller error it is.
    // An unchecked legacy row gets the lenient v1 treatment: dropped.
    if (e.ix >= width || e.iy >= spec.r_axis.size()) {
      PF_CHECK_MSG(!checked, "journal " << path << " row out of grid: " << line);
      ++result.dropped;
      continue;
    }
    // FAIL rows re-attempt on resume, and so do rows no experiment
    // produced (attempts = 0: points the retired adaptive tracing filled
    // by inference).
    if (e.ffm == faults::Ffm::kSolveFailed || e.attempts == 0) {
      if (e.ffm == faults::Ffm::kSolveFailed) ++result.fail_rows;
      by_index.erase(e.iy * width + e.ix);
      continue;
    }
    by_index[e.iy * width + e.ix] = e;
  }
  result.clean_end = last_is_trailer;
  result.entries.reserve(by_index.size());
  for (const auto& [index, entry] : by_index) result.entries.push_back(entry);
  return result;
}

SweepJournal::SweepJournal(const std::string& path, const SweepSpec& spec)
    : fingerprint_(fingerprint(spec)) {
  // Freshness probe, with the same quarantine rule as load(): never append
  // rows to a file we could not resume from.
  bool fresh = true;
  std::string first_line;
  if (read_first_line(path, &first_line)) {
    const Header header = parse_header(first_line);
    if (header.version == 0) {
      if (!quarantine(path)) std::remove(path.c_str());
    } else {
      PF_CHECK_MSG(header.fingerprint == hex16(fingerprint_),
                   "journal " << path << " belongs to a different sweep; "
                              << "delete it to start over");
      fresh = false;
    }
  }
  // A torn tail row stays on its own line: a row appended after it would
  // otherwise fuse with it and be dropped on the next load.
  const bool torn_tail = !fresh && ends_mid_line(path);
  out_.open(path, std::ios::app);
  PF_CHECK_MSG(out_.is_open(), "cannot open sweep journal " << path);
  if (torn_tail) out_ << '\n';
  if (fresh) {
    out_ << kJournalTag << "v2 " << kFingerprintField << hex16(fingerprint_)
         << '\n'
         << kColumnHeaderV2 << '\n';
    out_.flush();
  }
}

void SweepJournal::append(const Entry& entry, double r_def, double u) {
  std::ostringstream row;
  row << entry.iy << ',' << entry.ix << ',' << r_def << ',' << u << ','
      << (entry.ffm == faults::Ffm::kUnknown ? "-"
                                             : faults::ffm_name(entry.ffm))
      << ',' << entry.attempts;
  const std::string payload = row.str();
  std::lock_guard<std::mutex> lock(mu_);
  out_ << payload << ',' << hex8(pf::crc32(payload)) << '\n';
  out_.flush();
  ++rows_appended_;
}

void SweepJournal::finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return;
  out_ << trailer_line(fingerprint_) << '\n';
  out_.flush();
  finalized_ = true;
}

}  // namespace pf::analysis
