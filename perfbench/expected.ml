(* Digests recorded from the program as of this benchmark's first
   commit.  A run whose outputs map to different digests counts the
   affected ops as failed and exits nonzero.  Regenerate them only
   together with a deliberate change of the program's outputs:
   [bench.exe --workload W ...] prints each digest it computed as an
   "observed" line, and [bench.exe --record-daemon 0 127] prints the
   [daemon] table. *)

(* analyze-m1000: the frame CSV, names mapped back, canonical order. *)
let analyze_csv = "96859838dd71d84ba722fe598e0aa59e"

(* survive-tiles-k2: fates, matrix and shed set, names mapped back. *)
let survive_signature = "10cf6983c84209e8ccfb6e6e6d7d21cd"

(* churn-tiles: the set-up transcript and fingerprint, and the first
   churn period's transcript (tile groups in canonical order, sequence
   numbers stripped) and the fingerprint after it. *)
let churn_setup_transcript = "ec8c922e7ef99992573992cbd9ded643"
let churn_setup_fingerprint = "0d3b095e41643efa2a7ac11a15a0a2a3"
let churn_period_transcript = "c4d806733a8349e6fca83412714d25b1"
let churn_period_fingerprint = "9b110f033a65225aaf08fb9fecdb3035"

(* churn-tiles: the frame CSV of the session's report over the base set,
   after set-up and again after the first period. *)
let churn_base_report = "3c7750efb5a5ffb2e7b2b9a5c4948204"

(* daemon-voip, per seed: the transcript of the base and the first
   [W_daemon.check_events] churn events, and the session fingerprint
   after them. *)
let daemon =
  [
    (0, "f6a1ea9e557bd02bd7ef0b04be080b66", "b2769561f152985b1c76fb4728141044");
    (1, "f6a1ea9e557bd02bd7ef0b04be080b66", "e98f9332b324365c796098b81e260bf9");
    (2, "f6a1ea9e557bd02bd7ef0b04be080b66", "db6854daa725a8efad0bf4166403c6c0");
    (3, "f6a1ea9e557bd02bd7ef0b04be080b66", "8accc880bf999d8271811f6e0b6be8ac");
    (4, "f6a1ea9e557bd02bd7ef0b04be080b66", "8b590cd80529cb1a882322904c5c78a3");
    (5, "f6a1ea9e557bd02bd7ef0b04be080b66", "24d87a6a497cbbeaaeb2d3bdcebdfe26");
    (6, "f6a1ea9e557bd02bd7ef0b04be080b66", "49eca107686c1ecf7d90a15cf5ced6e3");
    (7, "f6a1ea9e557bd02bd7ef0b04be080b66", "e22b779c57e49c44e92a7eb4d2a02f08");
    (8, "f6a1ea9e557bd02bd7ef0b04be080b66", "83aba83253ae0699bfc614586a074a20");
    (9, "f6a1ea9e557bd02bd7ef0b04be080b66", "6ab5573b0c9c3a6c638610035773ac08");
    (10, "f6a1ea9e557bd02bd7ef0b04be080b66", "a3c129749564bf6776bb4d3828de3e97");
    (11, "f6a1ea9e557bd02bd7ef0b04be080b66", "a1ac48846669dce9148a1fdf4579c6b6");
    (12, "f6a1ea9e557bd02bd7ef0b04be080b66", "529cd4355d5e631ae1fa361269eca254");
    (13, "f6a1ea9e557bd02bd7ef0b04be080b66", "7b2a3b5c9663269038d163813a4e5db1");
    (14, "f6a1ea9e557bd02bd7ef0b04be080b66", "b6a378b9ee0f52b13a00e8c93a200249");
    (15, "f6a1ea9e557bd02bd7ef0b04be080b66", "f5d33e3e0211da9f0c5aa9bd16b0b81e");
    (16, "f6a1ea9e557bd02bd7ef0b04be080b66", "10ee297a067106077a572d40f1b82074");
    (17, "f6a1ea9e557bd02bd7ef0b04be080b66", "4c63d0c1ecfd5cb00fd2aa7c9949f41b");
    (18, "f6a1ea9e557bd02bd7ef0b04be080b66", "b3c658f5964aecf70532c904530cb3cc");
    (19, "f6a1ea9e557bd02bd7ef0b04be080b66", "bfbeebcc028390f567c14e8183e9e369");
    (20, "f6a1ea9e557bd02bd7ef0b04be080b66", "d5cdd531ebe5df5f278cb8e6ec0ce7d6");
    (21, "f6a1ea9e557bd02bd7ef0b04be080b66", "b706c63650572f155b90e533d01e9515");
    (22, "f6a1ea9e557bd02bd7ef0b04be080b66", "83b48ae996776f2b9ed0611ae6592816");
    (23, "f6a1ea9e557bd02bd7ef0b04be080b66", "436818de47db7c83cd97eb0fb88b3fc5");
    (24, "f6a1ea9e557bd02bd7ef0b04be080b66", "160cc0d64a5b38e04db7690c344abdb0");
    (25, "f6a1ea9e557bd02bd7ef0b04be080b66", "217cc539056b2b3ca3853d05bd2b49ff");
    (26, "f6a1ea9e557bd02bd7ef0b04be080b66", "19a7e33eb7c987170fea1305df315245");
    (27, "f6a1ea9e557bd02bd7ef0b04be080b66", "ef75f4e2007ecf1569e818da3a95ad09");
    (28, "f6a1ea9e557bd02bd7ef0b04be080b66", "357c958a84320b9897de3924a0ffd4a0");
    (29, "f6a1ea9e557bd02bd7ef0b04be080b66", "127797e27db45c26f078bb61e2020d3e");
    (30, "f6a1ea9e557bd02bd7ef0b04be080b66", "94dca5058054029a31d3c47a271d5a6c");
    (31, "f6a1ea9e557bd02bd7ef0b04be080b66", "f61bf4f9d57de40568034da94259921c");
    (32, "f6a1ea9e557bd02bd7ef0b04be080b66", "1cdc39791e2df4d1f1c8c481245f7466");
    (33, "f6a1ea9e557bd02bd7ef0b04be080b66", "515058c7bf68d6c214086d43df418695");
    (34, "f6a1ea9e557bd02bd7ef0b04be080b66", "afc47d7e44c67dfa9f15f86f668e0608");
    (35, "f6a1ea9e557bd02bd7ef0b04be080b66", "3493b27ea211eee785d77f54427460a3");
    (36, "f6a1ea9e557bd02bd7ef0b04be080b66", "6e672fa8ddd951743a31a8fe94a13d4d");
    (37, "f6a1ea9e557bd02bd7ef0b04be080b66", "95b548bb27d4453402629bf7fddee098");
    (38, "f6a1ea9e557bd02bd7ef0b04be080b66", "9cf855bad30280ac313157e14f5223f5");
    (39, "f6a1ea9e557bd02bd7ef0b04be080b66", "1819e82e47a3652860db82a38ed76832");
    (40, "f6a1ea9e557bd02bd7ef0b04be080b66", "60e8c8a7e32ec684fcdd445b1b560437");
    (41, "f6a1ea9e557bd02bd7ef0b04be080b66", "7bec37ed882a476817b097b7f03aed3c");
    (42, "f6a1ea9e557bd02bd7ef0b04be080b66", "86f984210cf5d72f64a05cfcecd086c0");
    (43, "f6a1ea9e557bd02bd7ef0b04be080b66", "04810f336d26d5088b78d4d62e9618cb");
    (44, "f6a1ea9e557bd02bd7ef0b04be080b66", "e021f390c417ac20bc035900513d2ff5");
    (45, "f6a1ea9e557bd02bd7ef0b04be080b66", "42541b276d16e53ab6fc9f631de436e8");
    (46, "f6a1ea9e557bd02bd7ef0b04be080b66", "ef9ee584c526016a49e7d270b185f92b");
    (47, "f6a1ea9e557bd02bd7ef0b04be080b66", "8c711c5cc5d6688f8573071f1538a510");
    (48, "f6a1ea9e557bd02bd7ef0b04be080b66", "244a973b9369d1fb9ea1b3ce0c303016");
    (49, "f6a1ea9e557bd02bd7ef0b04be080b66", "d20c1bcb3ff6395234e669cc27001c00");
    (50, "f6a1ea9e557bd02bd7ef0b04be080b66", "dc20921de923908bc7f53bb7118c4c43");
    (51, "f6a1ea9e557bd02bd7ef0b04be080b66", "1421c19a2b71ceec8b07e67269f4a4c0");
    (52, "f6a1ea9e557bd02bd7ef0b04be080b66", "a3053e545a1f19fc503cd826d64c6f91");
    (53, "f6a1ea9e557bd02bd7ef0b04be080b66", "56af410f34d3fa10e5248f41c6c26bd0");
    (54, "f6a1ea9e557bd02bd7ef0b04be080b66", "abd734df6d90a367e997f44a91033789");
    (55, "f6a1ea9e557bd02bd7ef0b04be080b66", "254941e78c01313d15099c322a38c715");
    (56, "f6a1ea9e557bd02bd7ef0b04be080b66", "0cc6a34696f8d7180d7e58e08209036f");
    (57, "f6a1ea9e557bd02bd7ef0b04be080b66", "5ff6ef341d65515fa3e079d63b830fb4");
    (58, "f6a1ea9e557bd02bd7ef0b04be080b66", "4e19aa2b7d04aed756feecda5a659ca6");
    (59, "f6a1ea9e557bd02bd7ef0b04be080b66", "9c280e7db2397042a236a5a4e430211a");
    (60, "f6a1ea9e557bd02bd7ef0b04be080b66", "4cedcc341132320fa71706b0bce9839a");
    (61, "f6a1ea9e557bd02bd7ef0b04be080b66", "e36efddada2f7f4ebe86f5829d611423");
    (62, "f6a1ea9e557bd02bd7ef0b04be080b66", "471f0a0b9aa89f578e7d463cfe6b5bd4");
    (63, "f6a1ea9e557bd02bd7ef0b04be080b66", "39a673b20c5a67ce53eaa15928a868bf");
    (64, "f6a1ea9e557bd02bd7ef0b04be080b66", "826b1e4ac1cc9d453a1c2f5d9079b185");
    (65, "f6a1ea9e557bd02bd7ef0b04be080b66", "c4ee6c0a2ff483916773d2c27f657322");
    (66, "f6a1ea9e557bd02bd7ef0b04be080b66", "348e3613404af056a22f2631d69441ae");
    (67, "f6a1ea9e557bd02bd7ef0b04be080b66", "1e139cf3c9c912f0ec7e56502caaf30d");
    (68, "f6a1ea9e557bd02bd7ef0b04be080b66", "c2468d16ffec180684dd749553fb9de4");
    (69, "f6a1ea9e557bd02bd7ef0b04be080b66", "4f3d98ac49444b6b3280b27febd95668");
    (70, "f6a1ea9e557bd02bd7ef0b04be080b66", "ef6696b43d52af8e4a04ed6973634e93");
    (71, "f6a1ea9e557bd02bd7ef0b04be080b66", "db06ca411d762b1e32e133d786b1b710");
    (72, "f6a1ea9e557bd02bd7ef0b04be080b66", "c9437ef894fda09fc9866b4a595ea29a");
    (73, "f6a1ea9e557bd02bd7ef0b04be080b66", "6437fac29a47af783d308e65a88cfe25");
    (74, "f6a1ea9e557bd02bd7ef0b04be080b66", "4b0d3cc242bf629e2d4f6c3f93d3e12f");
    (75, "f6a1ea9e557bd02bd7ef0b04be080b66", "71e98541f27725c8b67918e569924edc");
    (76, "f6a1ea9e557bd02bd7ef0b04be080b66", "cab35c83241d2eea5adb45920a703e01");
    (77, "f6a1ea9e557bd02bd7ef0b04be080b66", "06f10bb5da23faf2704f0ef00a63fadd");
    (78, "f6a1ea9e557bd02bd7ef0b04be080b66", "e520a8ded5a1982a0e860ff5ee092395");
    (79, "f6a1ea9e557bd02bd7ef0b04be080b66", "4b68ab433fdfd9295bea85d3352ab22b");
    (80, "f6a1ea9e557bd02bd7ef0b04be080b66", "3bb39feb173621f3605d01039737a541");
    (81, "f6a1ea9e557bd02bd7ef0b04be080b66", "b9f89d6c57e478cf52f911d9188228b2");
    (82, "f6a1ea9e557bd02bd7ef0b04be080b66", "097739b496b2a0b606397c97131cbaf2");
    (83, "f6a1ea9e557bd02bd7ef0b04be080b66", "0b391d6a8729a8b415770a1deda59557");
    (84, "f6a1ea9e557bd02bd7ef0b04be080b66", "10267aa65a454e95d8a9f59364d6de52");
    (85, "f6a1ea9e557bd02bd7ef0b04be080b66", "b4f7fbb6163a5fd84393961b3eb6adc6");
    (86, "f6a1ea9e557bd02bd7ef0b04be080b66", "ac830e8c753671495a82bb433a6e8b9c");
    (87, "f6a1ea9e557bd02bd7ef0b04be080b66", "aa9ef7e4607e11faa5c12584b3eee269");
    (88, "f6a1ea9e557bd02bd7ef0b04be080b66", "dcc48b5eb63a4fd308be872512948be9");
    (89, "f6a1ea9e557bd02bd7ef0b04be080b66", "0a8993cb9f8ae4d1a1c08b2f3fa9c5fc");
    (90, "f6a1ea9e557bd02bd7ef0b04be080b66", "05ffd9eaadd7360e187bd695470b7482");
    (91, "f6a1ea9e557bd02bd7ef0b04be080b66", "2104e634ed98f75d1ca74122cdfd7473");
    (92, "f6a1ea9e557bd02bd7ef0b04be080b66", "922bea7feacdb50b5de7dc9e4d337987");
    (93, "f6a1ea9e557bd02bd7ef0b04be080b66", "a357ff7373adb404c70d4b115fe789ad");
    (94, "f6a1ea9e557bd02bd7ef0b04be080b66", "79a80fcaba04eb72d25325706251f155");
    (95, "f6a1ea9e557bd02bd7ef0b04be080b66", "06eb44a4bb09e0d7fca385d9b19f34f4");
    (96, "f6a1ea9e557bd02bd7ef0b04be080b66", "b5df0f72d0e6ccc31fadfc3fd908dfb0");
    (97, "f6a1ea9e557bd02bd7ef0b04be080b66", "308ad81162273de747e95145594fad89");
    (98, "f6a1ea9e557bd02bd7ef0b04be080b66", "8a4c8fb02fba788b438f2470c7566be3");
    (99, "f6a1ea9e557bd02bd7ef0b04be080b66", "48c6e867d4f30916f1c7c893a96c5e62");
    (100, "f6a1ea9e557bd02bd7ef0b04be080b66", "6f6b6a96058a102d780442c032388f5a");
    (101, "f6a1ea9e557bd02bd7ef0b04be080b66", "eab439f6ca57981045279ace0da32ace");
    (102, "f6a1ea9e557bd02bd7ef0b04be080b66", "9a9794e8737dc5d631528ee862bcfd0f");
    (103, "f6a1ea9e557bd02bd7ef0b04be080b66", "046dc5b7bb34e76ff1efce0d83341f34");
    (104, "f6a1ea9e557bd02bd7ef0b04be080b66", "0d8d15cd29799805bc6df4f2cb5bed32");
    (105, "f6a1ea9e557bd02bd7ef0b04be080b66", "a4bb79ba5193141f1f35ba73bbb6c444");
    (106, "f6a1ea9e557bd02bd7ef0b04be080b66", "98c79961406e42d7c9ddba57c3160033");
    (107, "f6a1ea9e557bd02bd7ef0b04be080b66", "df6fff0294eadce3512ed12990fd12f1");
    (108, "f6a1ea9e557bd02bd7ef0b04be080b66", "9e82699f1eb89082aa51d2d44ce1e0ba");
    (109, "f6a1ea9e557bd02bd7ef0b04be080b66", "7e524bc0459c4e67b2be4d03bdcc808c");
    (110, "f6a1ea9e557bd02bd7ef0b04be080b66", "04d67132469c67f97092c1b7725fc682");
    (111, "f6a1ea9e557bd02bd7ef0b04be080b66", "fb9070d47b4985d9ba1d3931651a94b1");
    (112, "f6a1ea9e557bd02bd7ef0b04be080b66", "6a322d79a98b0fe184efa92591875b1e");
    (113, "f6a1ea9e557bd02bd7ef0b04be080b66", "d4fbb7e3e4a49a24eedd647e41a992c9");
    (114, "f6a1ea9e557bd02bd7ef0b04be080b66", "d129a38c718b7fcea1c5919079f446e7");
    (115, "f6a1ea9e557bd02bd7ef0b04be080b66", "7bb396b5037ac4e934f3803ff595c474");
    (116, "f6a1ea9e557bd02bd7ef0b04be080b66", "bbfb0ddeb113707a7c98155002861a42");
    (117, "f6a1ea9e557bd02bd7ef0b04be080b66", "dff4498baf3b980d60b2598e26a76682");
    (118, "f6a1ea9e557bd02bd7ef0b04be080b66", "5124fd48bfbc962fab6ed58e643e5391");
    (119, "f6a1ea9e557bd02bd7ef0b04be080b66", "3866d8baa680c985844ea134f0c453b4");
    (120, "f6a1ea9e557bd02bd7ef0b04be080b66", "99fe6a250f869ef594ed4088aa1bdb81");
    (121, "f6a1ea9e557bd02bd7ef0b04be080b66", "7634737989f1e7c044bb21559c2136af");
    (122, "f6a1ea9e557bd02bd7ef0b04be080b66", "17bc56c2ce1022e601f258fff4fcf5f0");
    (123, "f6a1ea9e557bd02bd7ef0b04be080b66", "e965288b4d7ef24a630da62ffcff851a");
    (124, "f6a1ea9e557bd02bd7ef0b04be080b66", "df7be7ae4a52b0253cc117b6c743e853");
    (125, "f6a1ea9e557bd02bd7ef0b04be080b66", "2afa03f5769359260692ec6164df9065");
    (126, "f6a1ea9e557bd02bd7ef0b04be080b66", "fefb7fe2fe0b632139a1f7565303b1e4");
    (127, "f6a1ea9e557bd02bd7ef0b04be080b66", "722f7e3e133abbbf3c8c70569448ab89");
  ]
