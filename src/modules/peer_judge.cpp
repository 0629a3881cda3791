#include "modules/peer_judge.h"

#include <algorithm>

namespace asdf::modules {

PeerJudge::PeerJudge(PeerKind kind, double threshold, int quorum,
                     std::vector<std::string> labels)
    : kind_(kind),
      threshold_(threshold),
      quorum_(quorum > 0
                  ? quorum
                  : std::max<int>(3, static_cast<int>(labels.size()) / 2 + 1)),
      labels_(std::move(labels)) {}

const core::MonitoringEvent* PeerJudge::judge(
    const analysis::GroupSummary* const* groups, std::size_t ngroups,
    SimTime time, const std::string& channel, double* flags, double* scores,
    double* health) {
  unmonitorable_.clear();
  std::size_t offset = 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const analysis::GroupSummary& s = *groups[g];
    for (std::size_t m = 0; m < s.members; ++m) {
      health[offset + m] = s.health[m];
      if (s.health[m] == 2.0) unmonitorable_.push_back(offset + m);
    }
    offset += s.members;
  }
  const int survivors = static_cast<int>(offset - unmonitorable_.size());
  const bool belowQuorum = survivors < std::max(quorum_, 3);

  std::fill(flags, flags + offset, 0.0);
  std::fill(scores, scores + offset, 0.0);
  if (!belowQuorum) {
    if (kind_ == PeerKind::kBlackBox) {
      analysis::mergeBlackBoxSummaries(groups, ngroups, threshold_, scratch_,
                                       flags, scores);
    } else {
      analysis::mergeWhiteBoxSummaries(groups, ngroups, threshold_, scratch_,
                                       flags, scores);
    }
  }

  if (unmonitorable_ == lastUnmonitorable_ &&
      belowQuorum == lastBelowQuorum_) {
    return nullptr;
  }
  lastUnmonitorable_.swap(unmonitorable_);
  lastBelowQuorum_ = belowQuorum;
  event_.time = time;
  event_.channel = channel;
  event_.survivors = survivors;
  event_.quorum = quorum_;
  event_.belowQuorum = belowQuorum;
  event_.unmonitorable.clear();
  for (const std::size_t i : lastUnmonitorable_) {
    event_.unmonitorable.push_back(labels_[i]);
  }
  return &event_;
}

}  // namespace asdf::modules
