#pragma once

/// \file client.h
/// \brief Client-side staging model.
///
/// Each request is associated with one client. The client plays the video at
/// `b_view` starting the instant the request is admitted, and owns a staging
/// buffer (disk) of fixed capacity into which the server may transmit ahead
/// of the playback point. A client can receive at most `receive_bandwidth`
/// (30 Mb/s in the paper's staging experiments; unbounded = infinity).
/// The buffer's state is two scalars on the Request (or its lane slot);
/// its fill/drain arithmetic is fluid_detail::apply_buffer
/// (cluster/fluid_lane.h).

#include <limits>

#include "vodsim/util/units.h"

namespace vodsim {

/// Per-client parameters shared by all requests in an experiment.
struct ClientProfile {
  /// Staging buffer capacity in megabits. The paper expresses this as a
  /// percentage of the average video size; engine::Config does the
  /// conversion. 0 disables staging (pure continuous transmission).
  Megabits buffer_capacity = 0.0;

  /// Maximum rate at which this client can receive data. Infinity models
  /// the unbounded case of Theorem 1.
  Mbps receive_bandwidth = std::numeric_limits<double>::infinity();
};

}  // namespace vodsim
