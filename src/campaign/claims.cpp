#include "campaign/claims.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/assert.hpp"

namespace hi::campaign {

namespace {

std::uint64_t now_realtime_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

}  // namespace

ClaimBoard::ClaimBoard(std::string dir, std::uint64_t run_id, int slot,
                       int lease_ms, obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)),
      run_id_(run_id),
      slot_(slot),
      lease_ms_(lease_ms),
      metrics_(metrics) {
  HI_REQUIRE(lease_ms_ > 0, "claim lease must be positive");
  if (::mkdir(dir_.c_str(), 0755) != 0) {
    HI_REQUIRE(errno == EEXIST, "cannot create claims directory '"
                                    << dir_ << "': " << std::strerror(errno));
  }
}

ClaimBoard::~ClaimBoard() {
  std::lock_guard<std::mutex> lock(held_mu_);
  for (const auto& [token, fd] : held_) {
    ::close(fd);
  }
}

std::string ClaimBoard::path_of(const std::string& token, int gen) const {
  return dir_ + "/" + token + ".g" + std::to_string(gen);
}

int ClaimBoard::highest_gen(const std::string& token) const {
  // Generations are contiguous from 0 (gen g+1 is only ever created by
  // a worker that saw gen g), so a linear probe terminates fast.
  int gen = -1;
  struct ::stat st{};
  while (::stat(path_of(token, gen + 1).c_str(), &st) == 0) {
    ++gen;
  }
  return gen;
}

bool ClaimBoard::create_claim(const std::string& token, int gen) {
  const std::string path = path_of(token, gen);
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
  if (fd < 0) {
    HI_REQUIRE(errno == EEXIST, "cannot create claim '"
                                    << path << "': " << std::strerror(errno));
    return false;  // lost the race
  }
  char buf[128];
  const int n =
      std::snprintf(buf, sizeof buf, "%d %d %" PRIu64 " %d\n",
                    static_cast<int>(::getpid()), slot_, run_id_, gen);
  HI_REQUIRE(::write(fd, buf, static_cast<std::size_t>(n)) == n,
             "claim write failed: " << std::strerror(errno));
  std::lock_guard<std::mutex> lock(held_mu_);
  held_.emplace(token, fd);
  return true;
}

ClaimOutcome ClaimBoard::try_claim(const std::string& token,
                                   bool steal_allowed) {
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    HI_REQUIRE(held_.find(token) == held_.end(),
               "double claim of row '" << token << "'");
  }
  if (is_done(token)) {
    return ClaimOutcome::kDone;
  }
  int gen = highest_gen(token);
  if (gen < 0) {
    if (create_claim(token, 0)) {
      ++tally_.rows_claimed;
      if (metrics_ != nullptr) {
        metrics_->counter("campaign.rows_claimed").add(1);
      }
      return ClaimOutcome::kAcquired;
    }
    gen = highest_gen(token);
    if (gen < 0) {
      return ClaimOutcome::kHeld;  // racer claimed and vanished; retry later
    }
  }
  const std::optional<ClaimInfo> info = read_claim(token);
  if (!info) {
    // Claim file exists but is unreadable/mid-write: give the creator
    // the benefit of the doubt for one lease.
    return ClaimOutcome::kHeld;
  }
  const bool pid_dead =
      ::kill(static_cast<pid_t>(info->pid), 0) != 0 && errno == ESRCH;
  const bool expired =
      info->age_ms > static_cast<std::uint64_t>(lease_ms_);
  if (!pid_dead && !expired) {
    return ClaimOutcome::kHeld;  // live, renewing owner
  }
  if (!steal_allowed) {
    return ClaimOutcome::kHeld;
  }
  if (expired && !pid_dead) {
    ++tally_.lease_expiries;
    if (metrics_ != nullptr) {
      metrics_->counter("campaign.lease_expiries").add(1);
    }
  }
  if (!create_claim(token, info->gen + 1)) {
    return ClaimOutcome::kHeld;  // another stealer won the O_EXCL race
  }
  ++tally_.rows_claimed;
  const bool recovery = info->run_id != run_id_;
  if (recovery) {
    ++tally_.recoveries;
  } else {
    ++tally_.steals;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("campaign.rows_claimed").add(1);
    metrics_->counter(recovery ? "campaign.recoveries" : "campaign.steals")
        .add(1);
  }
  return recovery ? ClaimOutcome::kRecovered : ClaimOutcome::kStolen;
}

void ClaimBoard::renew_all() {
  std::lock_guard<std::mutex> lock(held_mu_);
  for (const auto& [token, fd] : held_) {
    // Renewal is the mtime, not a rewrite — readers never see a torn
    // lease, and a SIGKILL between renewals simply lets it expire.
    HI_REQUIRE(::futimens(fd, nullptr) == 0,
               "lease renewal failed: " << std::strerror(errno));
  }
}

void ClaimBoard::mark_done(const std::string& token) {
  const std::string path = dir_ + "/" + token + ".done";
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    // A co-finisher of a stolen-but-both-alive row got here first.
    HI_REQUIRE(errno == EEXIST, "cannot create done marker '"
                                    << path << "': " << std::strerror(errno));
    return;
  }
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%d %d\n", slot_,
                              static_cast<int>(::getpid()));
  HI_REQUIRE(::write(fd, buf, static_cast<std::size_t>(n)) == n,
             "done marker write failed: " << std::strerror(errno));
  ::close(fd);
}

bool ClaimBoard::is_done(const std::string& token) const {
  return ::access((dir_ + "/" + token + ".done").c_str(), F_OK) == 0;
}

void ClaimBoard::release(const std::string& token) {
  std::lock_guard<std::mutex> lock(held_mu_);
  const auto it = held_.find(token);
  HI_REQUIRE(it != held_.end(), "release of unheld row '" << token << "'");
  ::close(it->second);
  held_.erase(it);
}

std::optional<ClaimInfo> ClaimBoard::read_claim(
    const std::string& token) const {
  const int gen = highest_gen(token);
  if (gen < 0) {
    return std::nullopt;
  }
  const std::string path = path_of(token, gen);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return std::nullopt;
  }
  char buf[128] = {};
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  struct ::stat st{};
  const bool have_stat = ::fstat(fd, &st) == 0;
  ::close(fd);
  ClaimInfo info;
  if (n <= 0 || !have_stat ||
      std::sscanf(buf, "%d %d %" SCNu64 " %d", &info.pid, &info.slot,
                  &info.run_id, &info.gen) != 4) {
    return std::nullopt;
  }
  const std::uint64_t mtime_ms =
      static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000u +
      static_cast<std::uint64_t>(st.st_mtim.tv_nsec) / 1000000u;
  const std::uint64_t now = now_realtime_ms();
  info.age_ms = now > mtime_ms ? now - mtime_ms : 0;
  return info;
}

}  // namespace hi::campaign
