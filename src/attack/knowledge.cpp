#include "attack/knowledge.h"

#include <algorithm>
#include <stdexcept>

#include "common/scan_mode.h"

namespace sos::attack {

void AttackerKnowledge::check_node(int node) const {
  if (node < 0 || node >= node_count())
    throw std::out_of_range("AttackerKnowledge: node out of range");
}

void AttackerKnowledge::check_filter(int filter) const {
  if (filter < 0 || filter >= filter_count())
    throw std::out_of_range("AttackerKnowledge: filter out of range");
}

void AttackerKnowledge::reset(int node_count, int filter_count) {
  if (node_count < 1)
    throw std::invalid_argument("AttackerKnowledge: empty overlay");
  if (filter_count < 0)
    throw std::invalid_argument("AttackerKnowledge: negative filter count");
  const bool same_shape =
      attempted_bits_.size() == static_cast<std::size_t>(node_count) &&
      filter_bits_.size() == static_cast<std::size_t>(filter_count);
  if (!same_shape || common::force_full_scan()) {
    attempted_bits_.assign(static_cast<std::size_t>(node_count));
    disclosed_bits_.assign(static_cast<std::size_t>(node_count));
    filter_bits_.assign(static_cast<std::size_t>(filter_count));
  } else {
    // The mark lists record every set bit exactly once, so clearing them
    // restores the blank state in O(marked).
    for (const int node : attempted_list_)
      attempted_bits_.reset(static_cast<std::size_t>(node));
    for (const int node : disclosed_list_)
      disclosed_bits_.reset(static_cast<std::size_t>(node));
    if (disclosed_filter_count_ > 0) filter_bits_.reset_all();
  }
  attempted_list_.clear();
  disclosed_list_.clear();
  attempted_count_ = 0;
  disclosed_count_ = 0;
  disclosed_filter_count_ = 0;
  pending_count_ = 0;
}

void AttackerKnowledge::mark_attempted(int node) {
  check_node(node);
  const auto slot = static_cast<std::size_t>(node);
  if (attempted_bits_.test(slot)) return;
  attempted_bits_.set(slot);
  attempted_list_.push_back(node);
  ++attempted_count_;
  if (disclosed_bits_.test(slot)) --pending_count_;
}

bool AttackerKnowledge::disclose(int node) {
  check_node(node);
  const auto slot = static_cast<std::size_t>(node);
  if (disclosed_bits_.test(slot)) return false;
  disclosed_bits_.set(slot);
  disclosed_list_.push_back(node);
  ++disclosed_count_;
  if (!attempted_bits_.test(slot)) ++pending_count_;
  return true;
}

bool AttackerKnowledge::disclose_filter(int filter) {
  check_filter(filter);
  const auto slot = static_cast<std::size_t>(filter);
  if (filter_bits_.test(slot)) return false;
  filter_bits_.set(slot);
  ++disclosed_filter_count_;
  return true;
}

void AttackerKnowledge::pending_into(std::vector<int>& dest) const {
  dest.clear();
  dest.reserve(static_cast<std::size_t>(pending_count_));
  for (const int node : disclosed_list_)
    if (!attempted_bits_.test(static_cast<std::size_t>(node)))
      dest.push_back(node);
  std::sort(dest.begin(), dest.end());  // ascending, as a population scan gives
}

void AttackerKnowledge::disclosed_into(std::vector<int>& dest) const {
  dest.assign(disclosed_list_.begin(), disclosed_list_.end());
  std::sort(dest.begin(), dest.end());
}

}  // namespace sos::attack
