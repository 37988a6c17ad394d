#include "channel/user_channel.hpp"

namespace charisma::channel {

UserChannel::UserChannel(const ChannelConfig& config, common::RngStream rng)
    : owned_(std::make_unique<ChannelBank>(config)),
      bank_(owned_.get()),
      index_(bank_->add_user(std::move(rng))) {}

UserChannel::UserChannel(ChannelBank& bank, std::size_t index)
    : bank_(&bank), index_(index) {}

}  // namespace charisma::channel
