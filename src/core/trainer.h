// Functional ShmCaffe distributed trainer.
//
// Implements the paper's training system with real OS threads, a real SMB
// server (smb::SmbServer), MiniMPI initialisation and NCCL-style intra-group
// collectives, in three units along the paper's seams:
//
//  * the exchange (core/exchange.h): a group root's Fig. 6 protocol, T1/T2
//    on the main thread and the flush on a separate update thread that
//    overlaps the minibatch, mutually exclusive under one lock;
//  * the worker life (trainer.cc): Fig. 2 initialisation — MPI rank 0
//    creates the segments, initialises W_g and broadcasts the SHM key, and
//    every worker attaches and adopts W_g — then the step loop.  In
//    ShmCaffe-A (options.group_size == 1) every worker exchanges with the
//    SMB; in ShmCaffe-H (group_size > 1) a group runs synchronous SGD
//    (ncclAllReduce gradient averaging) and only its root exchanges,
//    broadcasting the refreshed weights to the group (§III-D);
//  * the supervisor (trainer.cc): starts and reaps the worker lives, fires
//    planned faults, sweeps heartbeats, evaluates W_g and assembles the
//    result.  Termination is aligned through the shared progress board
//    (§III-E).
#pragma once

#include "core/config.h"

namespace shmcaffe::core {

/// Runs distributed training; blocks until all workers finish.  The curve is
/// evaluated on the *global* weights at each epoch-equivalent boundary
/// (total iterations across workers).
TrainResult train_shmcaffe(const DistTrainOptions& options);

}  // namespace shmcaffe::core
