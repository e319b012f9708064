//! # pcm-device
//!
//! Structural and behavioural model of the PCM hardware the paper's write
//! schemes run on, mirroring the Samsung PRAM prototype the authors modified
//! (their Fig. 6–9):
//!
//! * [`pulse`] — SET/RESET/READ programming pulses and their time/current
//!   asymmetries (Fig. 1).
//! * [`cell`] — a single GST cell: amorphous/crystalline state, resistance
//!   contrast, programming, and wear.
//! * [`mod@array`] — cell blocks (rows × columns of cells) with per-row wear.
//! * [`write_driver`] — the redesigned write driver (Fig. 9): XOR-derived
//!   PROG-enable gating AND-ed with SET/RESET enables so only changed bits
//!   draw programming current.
//! * [`charge_pump`] — instantaneous-current metering per chip plus the
//!   global charge pump (GCP) that lets chips steal current from each other.
//! * [`chip`] — the chip datapath (Fig. 6): cell blocks, GYDEC column
//!   select, sense amps, DOUT buffer, the X136 write buffer, 0/1 counters,
//!   and the Reg0/Reg1 label/count registers.
//! * [`bank`] — a memory bank: four X16 chips behind one 64-bit datapath
//!   with a shared row buffer.
//! * [`fsm`] — the FSM0/FSM1 executors (Fig. 8) that replay a write
//!   schedule tick by tick, asserting MUX-select and write signals, while
//!   the charge pump checks the instantaneous budget on every tick.
//! * [`verify`] — program-and-verify with injectable per-bit pulse
//!   failures: the realism/fault-injection hook behind the chips'
//!   "program-and-verification circuits".
//!
//! The device model is *bit-accurate but compact*: cells store logical
//! state + wear, not analog dynamics. It exists so that schedules produced
//! by the `tetris-write` analysis stage can be **executed** and checked —
//! final array contents must equal the intended data and no tick may exceed
//! the power budget — rather than merely trusted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bank;
pub mod cell;
pub mod charge_pump;
pub mod chip;
pub mod fsm;
pub mod pulse;
pub mod verify;
pub mod write_driver;

pub use array::CellBlock;
pub use bank::PcmBank;
pub use cell::{CellState, PcmCell};
pub use charge_pump::{ChargePump, CurrentMeter, GlobalChargePump};
pub use chip::PcmChip;
pub use fsm::{FsmExecutor, ScheduledBitWrite, WriteOp};
pub use pulse::{Pulse, PulseKind, PulseLibrary};
pub use verify::{program_row_verified, VerifyParams, VerifyReport};
pub use write_driver::{DriveOutputs, WriteDriver, WriteSignal};
