(** Radix-2 Cooley-Tukey fast Fourier transform.

    Operates in place on separate real/imaginary arrays whose length must be
    a power of two ([Invalid_argument] otherwise). Used by the classifier's
    low-pass "smoothening" stage (paper §3.4 step 1). *)

val transform : real:float array -> imag:float array -> unit
(** Forward DFT, in place. *)

val inverse : real:float array -> imag:float array -> unit
(** Inverse DFT, in place, including the 1/n scaling. *)

val lowpass : dt:float -> cutoff:float -> float array -> float array
(** [lowpass ~dt ~cutoff xs] removes every frequency component strictly
    above [cutoff] (Hz) from the uniformly sampled signal [xs] (sample
    spacing [dt] seconds). The signal is zero-padded to a power of two
    internally; the returned array has the original length. *)
