// JobSpec validation/admission bounds and the crash-safe result cache:
// manifest-last commits, verify-on-read, quarantine of torn/corrupt
// entries, startup recovery, and the service-layer fault injections.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "pf/service/cache.hpp"
#include "pf/service/fault_injection.hpp"
#include "pf/service/job.hpp"
#include "pf/util/error.hpp"
#include "pf/util/sha256.hpp"

namespace fs = std::filesystem;

namespace pf::service {
namespace {

JobSpec tiny_job() {
  JobSpec job;
  job.defect_kind = "open";
  job.open_site = 4;
  job.r_points = 2;
  job.u_points = 2;
  return job;
}

std::string fresh_store(const std::string& name) {
  const std::string root = ::testing::TempDir() + name;
  fs::remove_all(root);
  return root;
}

TEST(JobSpec, JsonRoundTripIsExact) {
  JobSpec job = tiny_job();
  job.sos_text = "0w1r1";
  job.temperature_c = 85.0;
  job.threads = 4;
  job.deadline_seconds = 10.5;
  job.throttle_ms = 2.5;
  const JobSpec back = JobSpec::from_json(job.to_json());
  EXPECT_EQ(back.to_json().dump(), job.to_json().dump());
  EXPECT_EQ(back.cache_key(), job.cache_key());
}

TEST(JobSpec, AdmissionRejectsOutOfBoundsRequests) {
  const auto parse = [](const std::string& text) {
    return JobSpec::from_json(Json::parse(text));
  };
  EXPECT_THROW(parse(R"({"defect_kind":"meteor"})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"r_points":1})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"r_points":65})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"r_points":60,"u_points":60})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"threads":64})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"deadline_seconds":7200})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"sos":"xyzzy"})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"open_site":11})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"floating_line_index":5})"), pf::ParseError);
  // Integer fields reject non-integral numbers: truncating {"open_site":
  // 2.7} would run a different job (and cache key) than the client wrote.
  EXPECT_THROW(parse(R"({"open_site":2.7})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"r_points":4.5})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"threads":1.5})"), pf::ParseError);
  EXPECT_THROW(parse(R"({"max_attempts":0.5})"), pf::ParseError);
  // Shorts/bridges float no line — the paper's point — so there is
  // nothing to sweep and admission says so upfront.
  EXPECT_THROW(parse(R"({"defect_kind":"bridge"})"), pf::ParseError);
  EXPECT_THROW(parse("[1,2,3]"), pf::ParseError);
}

TEST(JobSpec, LegacyBackendKeyIsIgnored) {
  // Older clients and stored campaign specs may still carry the retired
  // "backend" field ("scalar" or "batched"). from_json reads only the keys
  // it knows, so such a payload admits as the same job: same cache key,
  // same wire encoding, and existing cache entries stay addressable.
  const std::string base =
      R"("defect_kind":"open","open_site":4,"r_points":2,"u_points":2)";
  const JobSpec plain = JobSpec::from_json(Json::parse("{" + base + "}"));
  for (const char* legacy : {"scalar", "batched"}) {
    const JobSpec old = JobSpec::from_json(Json::parse(
        "{" + base + R"(,"backend":")" + legacy + "\"}"));
    EXPECT_EQ(old.cache_key(), plain.cache_key()) << legacy;
    EXPECT_EQ(old.to_json().dump(), plain.to_json().dump()) << legacy;
  }
}

TEST(JobSpec, LegacyAdaptiveKeyIsIgnored) {
  // Adaptive tracing is retired: a stored payload's "adaptive" key, of any
  // type, admits as the same dense job. It cannot bring inferred points
  // back, and existing cache entries stay addressable.
  const std::string base =
      R"("defect_kind":"open","open_site":4,"r_points":2,"u_points":2)";
  const JobSpec plain = JobSpec::from_json(Json::parse("{" + base + "}"));
  for (const char* legacy : {"true", "false", R"("yes")", "1"}) {
    const JobSpec old = JobSpec::from_json(
        Json::parse("{" + base + R"(,"adaptive":)" + legacy + "}"));
    EXPECT_EQ(old.cache_key(), plain.cache_key()) << legacy;
    EXPECT_EQ(old.to_json().dump(), plain.to_json().dump()) << legacy;
  }
}

TEST(JobSpec, CacheKeyTracksResultIdentityNotExecutionKnobs) {
  const JobSpec base = tiny_job();
  JobSpec threads = base;
  threads.threads = 8;  // bit-identical results: same cache entry
  EXPECT_EQ(base.cache_key(), threads.cache_key());
  JobSpec throttled = base;
  throttled.throttle_ms = 5;
  EXPECT_EQ(base.cache_key(), throttled.cache_key());

  JobSpec hot = base;
  hot.temperature_c = 85.0;  // changes the result: different entry
  EXPECT_NE(base.cache_key(), hot.cache_key());
  JobSpec other_site = base;
  other_site.open_site = 6;
  EXPECT_NE(base.cache_key(), other_site.cache_key());
  JobSpec denser = base;
  denser.u_points = 3;
  EXPECT_NE(base.cache_key(), denser.cache_key());
}

TEST(ResultCache, CommitThenVerifiedHit) {
  ResultCache cache(fresh_store("cache_hit"));
  const JobSpec job = tiny_job();
  const std::string csv = "r_def,u,ffm\n1,0.5,none\n";
  Json stats;
  stats.set("solved", Json(4));
  const Json manifest = cache.commit(job, csv, stats);
  EXPECT_EQ(manifest.string_or("result_sha256", ""), pf::sha256_hex(csv));

  std::string got;
  Json got_manifest;
  ASSERT_TRUE(cache.get(job.cache_key(), &got, &got_manifest));
  EXPECT_EQ(got, csv);
  EXPECT_EQ(got_manifest.string_or("key", ""), key_hex(job.cache_key()));
  EXPECT_EQ(got_manifest.get("stats").number_or("solved", 0), 4);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().commits, 1u);
}

TEST(ResultCache, ManifestLessEntryIsQuarantinedNotServed) {
  const std::string root = fresh_store("cache_torn");
  ResultCache cache(root);
  const JobSpec job = tiny_job();
  // Fake a crash between result write and manifest write.
  const std::string dir = root + "/cache/" + key_hex(job.cache_key());
  fs::create_directories(dir);
  std::ofstream(dir + "/result.csv") << "half a resu";

  std::string got;
  EXPECT_FALSE(cache.get(job.cache_key(), &got, nullptr));
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_TRUE(fs::exists(dir + ".corrupt"));  // evidence preserved
}

TEST(ResultCache, TamperedResultFailsShaVerificationAndQuarantines) {
  const std::string root = fresh_store("cache_rot");
  ResultCache cache(root);
  const JobSpec job = tiny_job();
  cache.commit(job, "r_def,u,ffm\n1,0.5,none\n", Json());
  const std::string dir = root + "/cache/" + key_hex(job.cache_key());
  std::ofstream(dir + "/result.csv", std::ios::trunc) << "bit rot!";

  EXPECT_FALSE(cache.get(job.cache_key(), nullptr, nullptr));
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir + ".corrupt"));
}

TEST(ResultCache, RecoverQuarantinesEveryInvalidEntryOnStartup) {
  const std::string root = fresh_store("cache_recover");
  {
    ResultCache cache(root);
    cache.commit(tiny_job(), "good\n", Json());
    // Two crashed commits from a previous life.
    fs::create_directories(root + "/cache/00000000deadbeef");
    std::ofstream(root + "/cache/00000000deadbeef/result.csv") << "torn";
    fs::create_directories(root + "/cache/00000000cafebabe");
  }
  ResultCache reopened(root);
  EXPECT_EQ(reopened.recover(), 2u);
  EXPECT_TRUE(fs::exists(root + "/cache/00000000deadbeef.corrupt"));
  std::string got;
  EXPECT_TRUE(reopened.get(tiny_job().cache_key(), &got, nullptr));
  EXPECT_EQ(got, "good\n");
  EXPECT_EQ(reopened.recover(), 0u);  // idempotent; valid entry untouched
}

TEST(ResultCache, InjectedTornWriteLeavesNoServableEntry) {
  const std::string root = fresh_store("cache_inject_torn");
  ResultCache cache(root);
  const JobSpec job = tiny_job();
  testing::ScopedServiceFault fault(testing::kTornCacheWrite);
  EXPECT_THROW(cache.commit(job, "full result bytes\n", Json()), pf::Error);
  EXPECT_EQ(testing::faults_fired(), 1u);

  // The torn entry exists on disk but must never be served.
  EXPECT_FALSE(cache.get(job.cache_key(), nullptr, nullptr));
  EXPECT_EQ(cache.stats().quarantined, 1u);

  // Injection fires once; the retried commit lands and verifies.
  cache.commit(job, "full result bytes\n", Json());
  std::string got;
  EXPECT_TRUE(cache.get(job.cache_key(), &got, nullptr));
  EXPECT_EQ(got, "full result bytes\n");
}

TEST(ResultCache, InjectedManifestFailureCommitsNothing) {
  const std::string root = fresh_store("cache_inject_manifest");
  ResultCache cache(root);
  const JobSpec job = tiny_job();
  testing::ScopedServiceFault fault(testing::kManifestWriteFail);
  EXPECT_THROW(cache.commit(job, "bytes\n", Json()), pf::Error);
  EXPECT_EQ(cache.stats().commits, 0u);
  EXPECT_FALSE(
      fs::exists(root + "/cache/" + key_hex(job.cache_key()) + "/manifest.json"));
}

TEST(ResultCache, JournalPathLifecycle) {
  const std::string root = fresh_store("cache_journal");
  ResultCache cache(root);
  const uint64_t key = tiny_job().cache_key();
  const std::string path = cache.journal_path(key);
  EXPECT_NE(path.find(key_hex(key)), std::string::npos);
  std::ofstream(path) << "# journal\n";
  EXPECT_TRUE(fs::exists(path));
  cache.discard_journal(key);
  EXPECT_FALSE(fs::exists(path));
  cache.discard_journal(key);  // idempotent on a missing journal
}

}  // namespace
}  // namespace pf::service
