#include "pf/campaign/spec.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "pf/campaign/fault_injection.hpp"
#include "pf/util/error.hpp"
#include "pf/util/fnv1a.hpp"
#include "pf/util/strings.hpp"

namespace pf::campaign {
namespace {

bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

void CampaignSpec::validate() const {
  if (jobs.empty()) throw pf::Error("campaign \"" + name + "\" has no jobs");
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CampaignJob& job = jobs[i];
    if (!valid_id(job.id))
      throw pf::Error("campaign job #" + std::to_string(i) +
                      ": id must be 1-64 chars of [A-Za-z0-9._-], got \"" +
                      job.id + "\"");
    if (!index_of.emplace(job.id, i).second)
      throw pf::Error("campaign: duplicate job id \"" + job.id + "\"");
    if (job.kind == CampaignJob::Kind::kCustom && !job.custom)
      throw pf::Error("campaign job \"" + job.id +
                      "\": custom job without a function");
  }
  for (const CampaignJob& job : jobs) {
    std::set<std::string> seen;
    for (const std::string& dep : job.deps) {
      if (dep == job.id)
        throw pf::Error("campaign job \"" + job.id + "\" depends on itself");
      if (index_of.find(dep) == index_of.end())
        throw pf::Error("campaign job \"" + job.id +
                        "\" depends on unknown job \"" + dep + "\"");
      if (!seen.insert(dep).second)
        throw pf::Error("campaign job \"" + job.id +
                        "\" lists dependency \"" + dep + "\" twice");
    }
  }
  // Cycle check (and the dep_cycle injection site, which forces the error
  // path on an otherwise clean spec): peel jobs whose deps are all peeled;
  // whatever cannot be peeled sits on (or behind) a cycle.
  std::vector<char> ordered(jobs.size(), 0);
  size_t placed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (ordered[i]) continue;
      bool ready = true;
      for (const std::string& dep : jobs[i].deps)
        if (!ordered[index_of[dep]]) {
          ready = false;
          break;
        }
      if (ready) {
        ordered[i] = 1;
        ++placed;
        progress = true;
      }
    }
  }
  const bool injected = testing::should_fail(testing::kDepCycle, name);
  if (placed < jobs.size() || injected) {
    std::ostringstream os;
    os << "campaign \"" << name << "\": dependency cycle involving";
    if (injected && placed == jobs.size()) {
      os << " (injected)";
    } else {
      for (size_t i = 0; i < jobs.size(); ++i)
        if (!ordered[i]) os << " \"" << jobs[i].id << "\"";
    }
    throw pf::Error(os.str());
  }
}

std::vector<size_t> CampaignSpec::topo_order() const {
  validate();
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < jobs.size(); ++i) index_of[jobs[i].id] = i;
  std::vector<size_t> order;
  order.reserve(jobs.size());
  std::vector<char> placed(jobs.size(), 0);
  // Deterministic Kahn: each pass takes ready jobs in declaration order.
  // validate() proved acyclicity, so this terminates.
  while (order.size() < jobs.size()) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (placed[i]) continue;
      bool ready = true;
      for (const std::string& dep : jobs[i].deps)
        if (!placed[index_of[dep]]) {
          ready = false;
          break;
        }
      if (ready) {
        placed[i] = 1;
        order.push_back(i);
      }
    }
  }
  return order;
}

uint64_t CampaignSpec::fingerprint() const {
  uint64_t hash = pf::kFnv1aOffsetBasis;
  // The separator keeps "ab"+"c" != "a"+"bc".
  const auto field = [&](std::string_view s) {
    hash = pf::fnv1a("\x1f", pf::fnv1a(s, hash));
  };
  for (const CampaignJob& job : jobs) {
    field(job.id);
    for (const std::string& dep : job.deps) field(dep);
    if (job.kind == CampaignJob::Kind::kSweep)
      field(service::key_hex(job.sweep.cache_key()));
    else
      field("custom");
  }
  return hash;
}

service::Json CampaignSpec::to_json() const {
  service::JsonArray jobs_json;
  for (const CampaignJob& job : jobs) {
    if (job.kind != CampaignJob::Kind::kSweep)
      throw pf::Error("campaign job \"" + job.id +
                      "\": custom jobs are in-process only and cannot be "
                      "serialized to a spec file");
    service::JsonObject obj;
    obj["id"] = service::Json(job.id);
    service::JsonArray deps;
    for (const std::string& dep : job.deps) deps.emplace_back(dep);
    obj["deps"] = service::Json(std::move(deps));
    obj["job"] = job.sweep.to_json();
    jobs_json.emplace_back(std::move(obj));
  }
  service::JsonObject root;
  root["name"] = service::Json(name);
  root["jobs"] = service::Json(std::move(jobs_json));
  return service::Json(std::move(root));
}

CampaignSpec CampaignSpec::from_json(const service::Json& json,
                                     const service::JobLimits& limits) {
  if (!json.is_object())
    throw pf::ParseError("campaign: document must be a JSON object");
  CampaignSpec spec;
  spec.name = json.string_or("name", spec.name);
  if (!json.has("jobs") || !json.get("jobs").is_array())
    throw pf::ParseError("campaign: missing \"jobs\" array");
  for (const service::Json& entry : json.get("jobs").as_array()) {
    if (!entry.is_object())
      throw pf::ParseError("campaign: each jobs[] entry must be an object");
    CampaignJob job;
    job.id = entry.string_or("id", "");
    if (entry.has("deps")) {
      if (!entry.get("deps").is_array())
        throw pf::ParseError("campaign job \"" + job.id +
                             "\": deps must be an array of job ids");
      for (const service::Json& dep : entry.get("deps").as_array()) {
        if (!dep.is_string())
          throw pf::ParseError("campaign job \"" + job.id +
                               "\": deps must be an array of job ids");
        job.deps.push_back(dep.as_string());
      }
    }
    if (!entry.has("job"))
      throw pf::ParseError("campaign job \"" + job.id +
                           "\": missing \"job\" (the sweep JobSpec)");
    job.sweep = service::JobSpec::from_json(entry.get("job"), limits);
    spec.jobs.push_back(std::move(job));
  }
  spec.validate();
  return spec;
}

CampaignSpec CampaignSpec::load_file(const std::string& path,
                                     const service::JobLimits& limits) {
  std::ifstream in(path);
  if (!in.is_open())
    throw pf::Error("campaign: cannot read spec file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(service::Json::parse(buffer.str()), limits);
}

}  // namespace pf::campaign
